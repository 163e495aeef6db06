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

Orientability is computed two independent ways (index of the subgroup of
even words, and 2-colorability of the flag graph) which must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groups import FiniteGroup, MarkedGroup, _extend_iso, subgroup_closure
from .presentations import (
    Presentation,
    index_of_even_subgroup,
    group_from_presentation,
    parse_presentation,
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


_MARK_NAMES = ("x", "y", "s", "t")


@dataclass(frozen=True)
class EdgeBiregularMap:
    """Value object: a group and its marked quadruple (x, y, s, t)."""

    group: FiniteGroup
    marks: tuple[int, int, int, int]

    @property
    def x(self) -> int:
        return self.marks[0]

    @property
    def y(self) -> int:
        return self.marks[1]

    @property
    def s(self) -> int:
        return self.marks[2]

    @property
    def t(self) -> int:
        return self.marks[3]

    def marked_group(self) -> MarkedGroup:
        return MarkedGroup(self.group, self.marks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        k, l = type_of(self)
        return f"EdgeBiregularMap({self.group.name}, order={self.group.order}, type=({k},{l}))"


def new_map(
    source: MarkedGroup | FiniteGroup,
    marks: tuple[int, int, int, int] | None = None,
) -> EdgeBiregularMap:
    """Validate a marked quadruple and build the map.

    Raises NotInvolution / NotDistinct / PairNotCommuting / NotGenerating,
    each naming the offending marks.
    """
    if isinstance(source, MarkedGroup):
        group, marks = source.group, source.marked  # type: ignore[assignment]
    else:
        group = source
    if marks is None or len(marks) != 4:
        raise MapStructureError("a map needs exactly four marked elements")
    for name, m in zip(_MARK_NAMES, marks):
        if not (0 <= m < group.order):
            raise MapStructureError(f"mark {name} out of range")
        if group.element_orders[m] != 2:
            raise NotInvolution(f"mark {name} is not an involution")
    if len(set(marks)) != 4:
        raise NotDistinct("marks x, y, s, t must be pairwise distinct")
    x, y, s, t = marks
    if group.mul[x][y] != group.mul[y][x]:
        raise PairNotCommuting("x and y do not commute")
    if group.mul[s][t] != group.mul[t][s]:
        raise PairNotCommuting("s and t do not commute")
    if len(subgroup_closure(group, marks)) != group.order:
        raise NotGenerating("marks do not generate the group")
    return EdgeBiregularMap(group, tuple(marks))  # type: ignore[arg-type]


def _unchecked(group: FiniteGroup, marks: tuple[int, int, int, int]) -> EdgeBiregularMap:
    return EdgeBiregularMap(group, marks)


# ---------------------------------------------------------------------------
# invariants


def type_of(m: EdgeBiregularMap) -> tuple[int, int]:
    """(k, l): twice the orders of t*y and s*x.  Not normalized; the census
    layer sorts k <= l for reporting."""
    g = m.group
    k = 2 * g.element_orders[g.mul[m.t][m.y]]
    l = 2 * g.element_orders[g.mul[m.s][m.x]]
    return k, l


def counts(m: EdgeBiregularMap) -> tuple[int, int, int]:
    """(vertices, edges, faces)."""
    n = m.group.order
    k, l = type_of(m)
    assert n % k == 0 and n % l == 0 and n % 2 == 0
    return n // k, n // 2, n // l


def euler_characteristic(m: EdgeBiregularMap) -> int:
    v, e, f = counts(m)
    return v - e + f


def euler_characteristic_formula(order: int, k: int, l: int) -> Fraction:
    """|H| * (1/k - 1/2 + 1/l) as an exact rational."""
    return order * (Fraction(1, k) - Fraction(1, 2) + Fraction(1, l))


# ---------------------------------------------------------------------------
# flags


@dataclass(frozen=True)
class FlagStructure:
    """The 2|H| flags with the three adjacency involutions.

    Flag 2*h + 0 is the bold-side flag at group element h, flag 2*h + 1 the
    dashed-side flag.  rho0 multiplies by x on the bold side and s on the
    dashed side, rho2 by y and t, and rho1 swaps sides.
    """

    rho0: tuple[int, ...]
    rho1: tuple[int, ...]
    rho2: tuple[int, ...]

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
    g = m.group
    n = g.order
    x, y, s, t = m.marks
    rho0 = [0] * (2 * n)
    rho1 = [0] * (2 * n)
    rho2 = [0] * (2 * n)
    for h in range(n):
        rho0[2 * h] = 2 * g.mul[h][x]
        rho0[2 * h + 1] = 2 * g.mul[h][s] + 1
        rho2[2 * h] = 2 * g.mul[h][y]
        rho2[2 * h + 1] = 2 * g.mul[h][t] + 1
        rho1[2 * h] = 2 * h + 1
        rho1[2 * h + 1] = 2 * h
    return FlagStructure(tuple(rho0), tuple(rho1), tuple(rho2))


# ---------------------------------------------------------------------------
# orientability (two independent routes, asserted to agree)


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
    by_index = index_of_even_subgroup(m.marked_group()) == 2
    by_flags = _flag_graph_bipartite(flag_structure(m))
    assert by_index == by_flags, "orientability algorithms disagree"
    return by_index


# ---------------------------------------------------------------------------
# duality, twins, isomorphism


def dual(m: EdgeBiregularMap) -> EdgeBiregularMap:
    x, y, s, t = m.marks
    return _unchecked(m.group, (y, x, t, s))


def twin(m: EdgeBiregularMap) -> EdgeBiregularMap:
    x, y, s, t = m.marks
    return _unchecked(m.group, (s, t, x, y))


def is_map_isomorphic(a: EdgeBiregularMap, b: EdgeBiregularMap) -> bool:
    """Group isomorphism carrying a's quadruple to b's, in order."""
    if a.group.order != b.group.order or type_of(a) != type_of(b):
        return False
    return _extend_iso(a.group, a.marks, b.group, b.marks) is not None


def is_fully_regular(m: EdgeBiregularMap) -> bool:
    return is_map_isomorphic(m, twin(m))


def is_self_dual(m: EdgeBiregularMap) -> bool:
    return is_map_isomorphic(m, dual(m))


def _standard_table(group: FiniteGroup, marks: tuple[int, ...]) -> tuple[int, ...]:
    """Right multiplication by the marks, with H renumbered canonically.

    H is numbered in breadth-first order from the identity, applying the
    marks in the given order (the standardized coset table of Holt, Eick
    and O'Brien, Handbook of Computational Group Theory, ch. 5).  Entry
    i * len(marks) + j is the number of h_i * marks[j].  Two marked groups
    have equal tables exactly when an isomorphism carries one's marks to
    the other's.
    """
    mul = group.mul
    number = {group.identity: 0}
    elements = [group.identity]
    table = []
    for h in elements:  # grows while it is walked
        row = mul[h]
        for z in marks:
            g = row[z]
            i = number.get(g)
            if i is None:
                i = number[g] = len(elements)
                elements.append(g)
            table.append(i)
    return tuple(table)


def equivalence_key(m: EdgeBiregularMap) -> tuple[int, ...]:
    """Canonical key of m up to isomorphism, duality and twinning.

    The least standardized table over the orderings of m, dual(m), twin(m)
    and dual(twin(m)); two maps are equivalent iff their keys are equal.
    """
    x, y, s, t = m.marks
    return min(
        _standard_table(m.group, marks)
        for marks in ((x, y, s, t), (y, x, t, s), (s, t, x, y), (t, s, y, x))
    )


def equivalent_up_to_duality(a: EdgeBiregularMap, b: EdgeBiregularMap) -> bool:
    """True when a is isomorphic to b, dual(b), twin(b) or dual(twin(b))."""
    return equivalence_key(a) == equivalence_key(b)


# ---------------------------------------------------------------------------
# semi-edge maps (the s = t degeneracy)


@dataclass(frozen=True)
class SemiEdgeMap:
    """Map with a semi-edge at every corner: marks (x, y, r) with s = t = r."""

    group: FiniteGroup
    marks: tuple[int, int, int]

    @property
    def x(self) -> int:
        return self.marks[0]

    @property
    def y(self) -> int:
        return self.marks[1]

    @property
    def r(self) -> int:
        return self.marks[2]


def semi_edge_type(sm: SemiEdgeMap) -> tuple[int, int]:
    g = sm.group
    k = 2 * g.element_orders[g.mul[sm.r][sm.y]]
    l = 2 * g.element_orders[g.mul[sm.r][sm.x]]
    return k, l


def semi_edge_counts(sm: SemiEdgeMap) -> dict[str, int]:
    """Vertices, full edges, semi-edges, faces and flags of the semi-edge map.

    Semi-edges carry two flags each, full edges four; the supporting surface
    is unchanged by semi-edge insertion, so chi = V - E_full + F.
    """
    n = sm.group.order
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


def insert_semi_edges(regular: MarkedGroup) -> SemiEdgeMap:
    """From a fully regular map triple (r0, r1, r2), insert a semi-edge into
    every corner: the result is the semi-edge map with marks (r0, r2, r1).

    Requires three distinct involutions with (r0*r2)^2 = 1 that generate the
    group; distinctness excludes the degenerate semi-star configurations.
    The type doubles: (ord(r1 r2), ord(r0 r1)) becomes (2k0, 2l0).
    """
    g = regular.group
    if len(regular.marked) != 3:
        raise MapStructureError("expected three marked involutions (r0, r1, r2)")
    r0, r1, r2 = regular.marked
    for name, m in zip(("r0", "r1", "r2"), regular.marked):
        if g.element_orders[m] != 2:
            raise NotInvolution(f"mark {name} is not an involution")
    if len({r0, r1, r2}) != 3:
        raise NotDistinct("semi-star configuration: marks must be distinct")
    if g.mul[r0][r2] != g.mul[r2][r0]:
        raise PairNotCommuting("r0 and r2 do not commute")
    if len(subgroup_closure(g, regular.marked)) != g.order:
        raise NotGenerating("marks do not generate the group")
    return SemiEdgeMap(g, (r0, r2, r1))


def delete_semi_edges(sm: SemiEdgeMap) -> MarkedGroup:
    """Inverse of insert_semi_edges: recover the triple (r0, r1, r2)."""
    return MarkedGroup(sm.group, (sm.x, sm.r, sm.y))


# ---------------------------------------------------------------------------
# map files: a presentation block plus one `mark x y s t` line


def load_map(
    text: str,
    max_cosets: int = 100_000,
    name: str | None = None,
) -> EdgeBiregularMap:
    """Build the map defined by a map file (presentation + mark line)."""
    mark_names: list[str] | None = None
    pres_lines: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped.startswith("mark ") or stripped == "mark":
            if mark_names is not None:
                raise MapStructureError(f"line {lineno}: duplicate mark line")
            mark_names = stripped.split()[1:]
            pres_lines.append("")  # keep line numbering for parse errors
        else:
            pres_lines.append(raw)
    if mark_names is None:
        raise MapStructureError("map file is missing a mark line")
    if len(mark_names) != 4:
        raise MapStructureError("mark line must name exactly four generators")
    pres = parse_presentation("\n".join(pres_lines))
    marked = group_from_presentation(pres, max_cosets=max_cosets, name=name)
    images = dict(zip(pres.generator_names, marked.marked))
    try:
        quad = tuple(images[nm] for nm in mark_names)
    except KeyError as exc:
        raise MapStructureError(f"mark line names unknown generator {exc}") from None
    return new_map(marked.group, quad)  # type: ignore[arg-type]


def strip_mark_lines(text: str) -> str:
    """Presentation text with any mark lines blanked (for the order command)."""
    out = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        out.append("" if stripped.split()[:1] == ["mark"] else raw)
    return "\n".join(out)


def map_file_text(presentation_text: str, mark_names: tuple[str, str, str, str]) -> str:
    body = presentation_text.rstrip("\n")
    return f"{body}\nmark {' '.join(mark_names)}\n"


# ---------------------------------------------------------------------------
# exhaustive search over one group


def commuting_involution_pairs(group: FiniteGroup) -> list[tuple[int, int]]:
    """All ordered pairs of distinct commuting involutions, lexicographically."""
    invs = [g for g in range(group.order) if group.element_orders[g] == 2]
    return [
        (a, b)
        for a in invs
        for b in invs
        if a != b and group.mul[a][b] == group.mul[b][a]
    ]


def all_map_quadruples(group: FiniteGroup, want_chi: int | None = None):
    """Yield every valid map on the group, in lexicographic mark order.

    ``want_chi`` filters by Euler characteristic before the (relatively
    expensive) generation check.
    """
    mul = group.mul
    orders = group.element_orders
    invs = [g for g in range(group.order) if orders[g] == 2]
    for x, y in commuting_involution_pairs(group):
        for s in invs:
            if s in (x, y):
                continue
            l = 2 * orders[mul[s][x]]
            for t in invs:
                if t in (x, y, s) or mul[s][t] != mul[t][s]:
                    continue
                if want_chi is not None:
                    k = 2 * orders[mul[t][y]]
                    if euler_characteristic_formula(group.order, k, l) != want_chi:
                        continue
                if len(subgroup_closure(group, (x, y, s, t))) != group.order:
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
