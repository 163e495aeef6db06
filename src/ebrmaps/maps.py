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

A map (``EdgeBiregularMap`` in annotations) is the 4-tuple (x, y, s, t)
of the permutations of H acting on itself by right multiplication by the
marks, each of length |H|.  ``perm[h]`` is the point h times the mark,
numbered by coset or by a dense group's elements.  Point 0 is the
identity, as element 0 is in every group table and coset 0 in every coset
table, so each mark is its permutation's image of 0.  One check,
``map_from_action``, validates the marks.  Every invariant below is
computed from the permutations, and a map keeps no dense multiplication
table.  The flags are permutations too:
``flag_structure`` gives the triple (rho0, rho1, rho2) of adjacency
involutions of 2|H| flags.

Orientability is computed two independent ways (index of the subgroup of
even words, and 2-colorability of the flag graph) which must agree.
"""

from __future__ import annotations

from collections.abc import Sequence

from .groups import (
    DEFAULT_MAX_COSETS,
    FiniteGroup,
    Perm,
    VerificationError,
    _orbit,
    _same_standard_table,
    _standard_rows,
    subgroup_closure,
)

# Only an annotation names Fraction here; the one function that makes a
# Fraction imports it when it does, and no command's chi value needs one.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


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


EdgeBiregularMap = tuple[Perm, Perm, Perm, Perm]


def map_from_action(perms: tuple[Perm, ...]) -> EdgeBiregularMap:
    """Validate the four mark permutations of a regular right action (point
    0 the identity) and return them as the map: distinct involutions x, y,
    s, t that generate H, with x, y and s, t the commuting pairs.

    Raises at the first failure, in this order: MapStructureError for the
    wrong shape or an entry outside range(|H|), NotInvolution (a mark that
    fixes point 0, the identity, is none), NotDistinct, PairNotCommuting,
    NotGenerating, each naming the offending marks.  O(|H|): the marks
    generate H iff the orbit of 0 under them is H in full.
    """
    if len(perms) != 4:
        raise MapStructureError("expected 4 marks (x, y, s, t)")
    points = range(len(perms[0]))
    if any(len(perm) != len(points) for perm in perms):
        raise MapStructureError("mark permutations have different lengths")
    if not points:
        raise MapStructureError("mark permutations are empty")
    for name, perm in zip(MARK_NAMES, perms):
        if min(perm) < 0 or max(perm) >= len(points):
            raise MapStructureError(f"mark {name} has an entry outside range(|H|)")
        if perm[0] == 0 or any(perm[perm[h]] != h for h in points):
            raise NotInvolution(f"mark {name} is not an involution")
    marks = [perm[0] for perm in perms]
    if len(set(marks)) != len(marks):
        raise NotDistinct("marks x, y, s, t must be pairwise distinct")
    for i in (0, 2):
        a, b = perms[i], perms[i + 1]
        if any(b[a[h]] != a[b[h]] for h in points):
            raise PairNotCommuting(f"{MARK_NAMES[i]} and {MARK_NAMES[i + 1]} do not commute")
    if len(_orbit(perms)) != len(points):
        raise NotGenerating("marks do not generate the group")
    return tuple(perms)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# invariants


def product_order(perms: Sequence[Perm], first: int, second: int) -> int:
    """Order of the product of marks number ``first`` and ``second`` of a
    regular action (0..3 for x, y, s, t of a map), by walking its cycle
    through the identity, point 0."""
    a, b = perms[first], perms[second]
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
    n = len(m[0])
    k, l = type_of(m)
    if n % k or n % l or n % 2:
        raise VerificationError(f"type ({k},{l}) does not divide the order {n}")
    return n // k, n // 2, n // l


def euler_characteristic(m: EdgeBiregularMap) -> int:
    v, e, f = counts(m)
    return v - e + f


def euler_characteristic_formula(order: int, k: int, l: int) -> int | Fraction:
    """|H| * (1/k - 1/2 + 1/l) as an exact rational: an int when integral.

    Integer arithmetic on |H| * (2l - kl + 2k) / (2kl).  Only a non-integral
    value imports and makes a Fraction, and no caller in the library meets
    one: both pass orders and types that give an integer by construction.
    """
    num = order * (2 * l - k * l + 2 * k)
    den = 2 * k * l
    if num % den:
        from fractions import Fraction

        return Fraction(num, den)
    return num // den


# ---------------------------------------------------------------------------
# flags


def flag_structure(m: EdgeBiregularMap) -> tuple[Perm, Perm, Perm]:
    """The three adjacency involutions (rho0, rho1, rho2) of the 2|H| flags.

    Flag 2*h + 0 is the bold-side flag at group element h, flag 2*h + 1 the
    dashed-side flag.  rho0 multiplies by x on the bold side and s on the
    dashed side, rho2 by y and t, and rho1 swaps sides (f to f ^ 1).
    """
    px, py, ps, pt = m
    flags = 2 * len(px)
    rho0, rho2 = [0] * flags, [0] * flags
    rho0[0::2], rho0[1::2] = [2 * h for h in px], [2 * h + 1 for h in ps]
    rho2[0::2], rho2[1::2] = [2 * h for h in py], [2 * h + 1 for h in pt]
    return tuple(rho0), tuple(f ^ 1 for f in range(flags)), tuple(rho2)


# ---------------------------------------------------------------------------
# orientability (two independent routes, checked to agree)


def _even_subgroup_index(m: EdgeBiregularMap) -> int:
    """Index (1 or 2) of the subgroup of even words in the marks: |H| over
    the size of the orbit of 0 under x*y, x*s and x*t.  These three
    generate every product a*b of two marks, since a*b = (x*a)^-1 (x*b)
    when x and a are involutions."""
    px, *others = m
    products = [tuple(map(a.__getitem__, px)) for a in others]
    size = len(_orbit(products))
    index, remainder = divmod(len(px), size)
    if remainder or index not in (1, 2):
        raise VerificationError(f"even subgroup of order {size} in a group of order {len(px)}")
    return index


def _flag_graph_bipartite(rhos: tuple[Perm, Perm, Perm]) -> bool:
    """Whether the flags 2-color so that each of rho0, rho1, rho2 joins
    flags of different colors."""
    n = len(rhos[0])
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            f = stack.pop()
            c = 1 - color[f]
            for p in rhos:
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


def dual(m: EdgeBiregularMap) -> EdgeBiregularMap:
    x, y, s, t = m
    return y, x, t, s


def twin(m: EdgeBiregularMap) -> EdgeBiregularMap:
    x, y, s, t = m
    return s, t, x, y


def is_fully_regular(m: EdgeBiregularMap) -> bool:
    """m is isomorphic to its twin."""
    return _same_standard_table(m, twin(m))


def is_self_dual(m: EdgeBiregularMap) -> bool:
    """m is isomorphic to its dual."""
    return _same_standard_table(m, dual(m))


def equivalence_key(m: EdgeBiregularMap) -> tuple[int, ...]:
    """Canonical key of m up to isomorphism, duality and twinning.

    The least standardized table (``groups._standard_rows``) over the four
    reorderings of the tuple m: m, dual(m), twin(m) and dual(twin(m)); two
    maps are equivalent iff their keys are equal.

    The four walks all number the orbit of 0, so their tables have
    the same length; they are drawn from one row (one element of H) at a
    time.  A variant is dropped at its first row that is larger than the
    least row, and the last one left is drained alone, so a variant that
    loses early costs only its first rows.
    """
    walks = [_standard_rows(variant) for variant in (m, dual(m), twin(m), dual(twin(m)))]
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
    action = regular_action(pres, max_cosets=max_cosets)
    images = dict(zip(pres.generator_names, action))
    try:
        quad = tuple(images[nm] for nm in mark_names)
    except KeyError as exc:
        raise MapStructureError(f"mark line names unknown generator {exc}") from None
    return map_from_action(quad)


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

    k and l range over the doubled element orders.  Solving chi = n (1/k -
    1/2 + 1/l) for k gives k = 2nl / (2 chi l + nl - 2n), kept when the
    denominator is positive and divides 2nl.
    """
    n, valencies = group.order, {2 * o for o in group.element_orders}
    k_for_l = {}
    for l in valencies:
        den = 2 * want_chi * l + n * l - 2 * n
        if den > 0 and 2 * n * l % den == 0 and (k := 2 * n * l // den) in valencies:
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
                    yield tuple(tuple(row[z] for row in mul) for z in (x, y, s, t))


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
