"""Finite groups as dense multiplication tables.

Every group in this library is a table over element indices 0..n-1, and
element 0 is the identity: its row and its column are ``range(n)``.  The
same holds for every action: point 0 of a regular action, like coset 0 of
a coset table, stands for the identity, so no identity is searched for or
passed around.  Marks live there too, not beside a table: a map, the one
marked structure here, is a plain tuple of permutations of its
regular action, one per mark, and each mark is its permutation's image of
point 0.  Only the exhaustive search, ``maps.all_map_quadruples``, reads
marks off a table, as its columns, and nothing in the library builds a
table from an action.  The builders make whole rows at a time from tuple slices,
rotations and ``map`` over them, not entry by entry: a cyclic or dihedral
row is a rotated or reversed ``range``, and a row of a direct or
semidirect product adds A's row, scaled by |B| and each entry repeated |B|
times, to B's row tiled |A| times.  A semidirect product is given by the
automorphisms of A attached to generators of B; it composes the action of
the rest of B itself and checks it on those generators.  Element orders come from walking each
cyclic subgroup once, with ord(a^j) = ord(a) / gcd(j, ord(a)).  The
conjugates of x come from column x of the table, read one column at a time
so the whole transpose is never held.  :func:`are_isomorphic` compares the
sorted element orders and, when they tie, standardized tables.  Two
walks go breadth first from point 0, here and in ``maps``:
:func:`_standard_rows` numbers H for every standardized table, and
:func:`_orbit` only collects the orbit of 0, for every generation check,
which :func:`subgroup_closure` makes on the table read as its regular
action.  Groups are immutable value objects, equal only to themselves.

Convention used throughout: ``dihedral(n)`` is the dihedral group OF ORDER
``n`` (so ``dihedral(12)`` has 6 rotations and 6 reflections).  All order
formulas in this package follow that convention.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cache
from itertools import permutations
from math import gcd
from operator import add, eq, getitem, itemgetter


class VerificationError(AssertionError):
    """A computed object failed one of the library's own consistency checks.

    Raised explicitly rather than by ``assert`` statements, so the checks
    also run under ``python -O``; the CLI reports it with exit code 1.
    """


Perm = tuple[int, ...]

# The most cosets, and so the largest group, that a coset enumeration may
# define unless told otherwise.  It and CapacityExceeded are kept here, not
# beside the enumerator in ``presentations``, so the CLI and ``maps`` can
# name them without loading the enumerator.
DEFAULT_MAX_COSETS = 100_000


class CapacityExceeded(RuntimeError):
    """Raised when an enumeration would define more than max_cosets cosets,
    or a group to be built has more than max_cosets elements."""

    def __init__(self, max_cosets: int) -> None:
        super().__init__(f"coset capacity {max_cosets} exceeded")
        self.max_cosets = max_cosets


class FiniteGroup:
    """Immutable finite group given by its multiplication table.

    ``mul[a][b]`` is the product a*b, and element 0 is the identity, which
    ``__post_init__`` checks.  Derived data (inverses, element orders) is
    computed eagerly there; the table is never mutated.  Groups are equal
    only to themselves.
    """

    def __init__(self, mul: tuple[tuple[int, ...], ...], name: str = "G") -> None:
        self.mul = mul
        self.name = name
        self.__post_init__()

    def __post_init__(self) -> None:
        mul = self.mul
        n = len(mul)
        if n == 0 or set(map(len, mul)) != {n}:
            raise ValueError("multiplication table must be square and nonempty")
        identity = tuple(range(n))
        if mul[0] != identity or tuple(map(itemgetter(0), mul)) != identity:
            raise ValueError("element 0 of the table is not the identity")
        inv = []
        for a, row in enumerate(mul):
            try:
                inv.append(row.index(0))
            except ValueError:
                raise ValueError(f"element {a} has no inverse") from None
        orders = [0] * n
        for a in range(n):
            if orders[a]:
                continue
            powers = [a]  # a^1, a^2, ... up to the identity, so ord(a^j) = k / gcd(j, k)
            while powers[-1] != 0:
                if len(powers) == n:
                    raise ValueError(f"element {a} has no finite order <= {n}")
                powers.append(mul[powers[-1]][a])
            k = len(powers)
            for j, power in enumerate(powers, 1):
                orders[power] = k // gcd(j, k)
        self.inv = tuple(inv)
        self.element_orders = tuple(orders)

    @property
    def order(self) -> int:
        return len(self.mul)

    def conjugates(self, x: int) -> tuple[int, ...]:
        """g x g^-1 for every element g, in the order of g: column x of the
        table gives g x, then multiply by g^-1."""
        mul = self.mul
        return tuple(map(getitem, map(mul.__getitem__, map(itemgetter(x), mul)), self.inv))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FiniteGroup({self.name}, order={self.order})"


# ---------------------------------------------------------------------------
# constructors


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group C_n; element 1 is a generator of order n (when n > 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    r = tuple(range(n))
    table = tuple(r[i:] + r[:i] for i in range(n))
    return FiniteGroup(table, name=f"C{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group OF ORDER n (n even).

    Elements 0..n/2-1 are rotations r^i, elements n/2..n-1 are reflections
    r^i*f.  The reflections n/2 and n/2 + 1 generate it, and their product
    has order n/2; for the degenerate n = 2 the single reflection 1 does.
    """
    if n < 2 or n % 2:
        raise ValueError("dihedral order must be even and >= 2")
    m = n // 2
    rot, ref = tuple(range(m)), tuple(range(m, n))
    # r^i times r^j is r^(i+j); r^i f times r^j is r^(i-j) f
    table = [rot[i:] + rot[:i] + ref[i:] + ref[:i] for i in range(m)]
    table += [ref[i::-1] + ref[:i:-1] + rot[i::-1] + rot[:i:-1] for i in range(m)]
    return FiniteGroup(tuple(table), name=f"D{n}")


def dicyclic(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n: <a, b | a^(2n) = 1, b^2 = a^n, bab^-1 = a^-1>.

    dicyclic(2) is the quaternion group Q8; dicyclic(4) is Q16.
    Element (i, j) with i < 2n, j < 2 stands for a^i * b^j, encoded i*2 + j.
    """
    if n < 1:
        raise ValueError("n must be positive")
    size = 4 * n
    r = tuple(range(size))
    with_b, plain = r[1::2], r[0::2]  # a^i b and a^i, indexed by i
    table = []
    for i in range(2 * n):
        table.append(r[2 * i :] + r[: 2 * i])  # a^i times a^k b^j is a^(i+k) b^j
        # a^i b times a^k is a^(i-k) b; a^i b times a^k b is a^(i-k+n)
        row = [0] * size
        row[0::2] = with_b[i::-1] + with_b[:i:-1]
        h = (i + n) % (2 * n)
        row[1::2] = plain[h::-1] + plain[:h:-1]
        table.append(tuple(row))
    name = f"Q{size}" if n % 2 == 0 else f"Dic{n}"
    return FiniteGroup(tuple(table), name=name)


def _perm_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # (a * b)(i) = a(b(i)): apply b first.
    return tuple(map(a.__getitem__, b))


def _perm_parity(p: tuple[int, ...]) -> int:
    seen, parity = [False] * len(p), 0
    for i in range(len(p)):
        if not seen[i]:
            j, cyclen = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                cyclen += 1
            parity ^= (cyclen - 1) & 1
    return parity


def _group_from_perms(perms: list[tuple[int, ...]], name: str) -> FiniteGroup:
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[_perm_compose(p, q)] for q in perms) for p in perms
    )
    return FiniteGroup(table, name=name)


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group S_n for 1 <= n <= 5."""
    if not 1 <= n <= 5:
        raise ValueError("symmetric(n) supports 1 <= n <= 5")
    return _group_from_perms(list(permutations(range(n))), f"S{n}")


def alternating(n: int) -> FiniteGroup:
    """Alternating group A_n for 1 <= n <= 5."""
    if not 1 <= n <= 5:
        raise ValueError("alternating(n) supports 1 <= n <= 5")
    perms = [p for p in permutations(range(n)) if _perm_parity(p) == 0]
    return _group_from_perms(perms, f"A{n}")


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Direct product; element (x, y) is encoded as x*|B| + y."""
    na, nb = a.order, b.order
    tiled = [brow * na for brow in b.mul]
    table = []
    for arow in a.mul:
        left = _spread([x * nb for x in arow], nb)
        table += [tuple(map(add, left, right)) for right in tiled]
    return FiniteGroup(tuple(table), name=name or f"{a.name}x{b.name}")


def _spread(scaled: list[int], nb: int) -> list[int]:
    """Each entry repeated nb times: given x*nb for A's row, the A part of a
    row of a product numbered x*|B| + y."""
    out = [0] * (len(scaled) * nb)
    for j in range(nb):
        out[j::nb] = scaled
    return out


def semidirect(
    a: FiniteGroup, b: FiniteGroup, images: dict[int, Perm], name: str | None = None
) -> FiniteGroup:
    """Semidirect product A x| B from the automorphisms attached to generators of B.

    ``images`` maps each generator g of B (its keys) to the permutation of
    A's elements implementing the automorphism attached to g.  The action of
    all of B is composed walking B breadth first from the identity, with
    action[v*g] = action[v] o images[g].  Element (x, y) is encoded as
    x*|B| + y.  ValueError unless each image is an automorphism of A (checked
    on generators of A, so every composite is one too), the keys generate B,
    and action[v*g] = action[v] o images[g] for every v in B and every key g,
    which makes v -> action[v] a homomorphism B -> Aut(A).
    O(|A| (|gens of A| + |B| |images|)).
    """
    na, nb = a.order, b.order
    amul, bmul = a.mul, b.mul
    identity, a_gens = tuple(range(na)), greedy_generators(a)
    for g, image in images.items():
        if g not in range(nb):
            raise ValueError(f"{g} is not an element of B")
        if sorted(image) != list(identity):
            raise ValueError(f"the image of {g} is not a permutation of A")
        for x in a_gens:  # image(y*x) = image(y)*image(x) for every y
            image_x = image[x]
            if [image[row[x]] for row in amul] != [amul[z][image_x] for z in image]:
                raise ValueError(f"the image of {g} is not an automorphism of A")
    action: list[Perm | None] = [None] * nb
    action[0] = identity
    walk = [0]
    for v in walk:  # grows while it is walked
        for g, image in images.items():
            vg, composed = bmul[v][g], _perm_compose(action[v], image)  # type: ignore[arg-type]
            if action[vg] is None:
                action[vg] = composed
                walk.append(vg)
            elif action[vg] != composed:
                raise ValueError("action is not a homomorphism B -> Aut(A)")
    if len(walk) != nb:
        raise ValueError("the keys do not generate B")
    scaled = [[x * nb for x in arow] for arow in amul]
    tiled = [brow * na for brow in bmul]
    table = tuple(
        tuple(map(add, _spread(list(map(srow.__getitem__, action[y])), nb), tiled[y]))
        for srow in scaled
        for y in range(nb)
    )
    return FiniteGroup(table, name=name or f"{a.name}:{b.name}")


@cache  # a roster asks about the same p once per member
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _require_odd_prime(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")


# ---------------------------------------------------------------------------
# closure and isomorphism


def subgroup_closure(g: FiniteGroup, gens: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Sorted elements of the subgroup generated by ``gens``: the orbit of
    0 under the table's columns for them, column z being h -> h*z.  They
    are lists: freed tuples shorter than 20 stay in CPython's free lists."""
    columns = [list(map(itemgetter(z), g.mul)) for z in dict.fromkeys(gens)]
    return tuple(sorted(_orbit(columns)))


def _orbit(perms: Sequence[Sequence[int]]) -> list[int]:
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


def _standard_rows(perms: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """The rows of the standardized table of a regular action, one at a time.

    The table is the action of the permutations ``perms`` on H, with H
    numbered breadth first from the identity, point 0, applying the
    permutations in the given order (the standardized coset table of Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, ch. 5).  Row i
    lists the numbers of h_i * g for each permutation g.  Two regular actions
    have equal tables exactly when an isomorphism carries one's generators
    to the other's, in order.  This is the one walk that numbers H: the map
    key, full regularity, self-duality and :func:`are_isomorphic` all read it.
    """
    number = [-1] * len(perms[0])
    number[0] = 0
    elements = [0]
    for h in elements:  # grows while it is walked
        row = []
        for perm in perms:
            g = perm[h]
            i = number[g]
            if i < 0:
                i = number[g] = len(elements)
                elements.append(g)
            row.append(i)
        yield row


def _same_standard_table(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    """Whether two regular actions, each with point 0 the identity, have
    equal standardized tables, that is, whether an isomorphism carries a's
    generators to b's in order.  Actions on different numbers of points
    differ.  The rows are compared as the walks make them, so the comparison
    stops at the first row that differs; while the rows agree, both walks
    have reached the same number of points, so they end together.
    """
    if len(a[0]) != len(b[0]):
        return False
    return all(map(eq, _standard_rows(a), _standard_rows(b)))


def greedy_generators(g: FiniteGroup) -> tuple[int, ...]:
    """Small generating set, grown by repeatedly adding the lowest index
    element outside the running closure (deterministic).

    A closure contains its generators, so each step adds a new element and
    at most |G| - 1 steps are made; VerificationError if a closure lacks one
    of them, where the loop would otherwise add elements for ever.
    """
    gens: list[int] = []
    closure = {0}
    while len(closure) < g.order:
        for x in range(g.order):
            if x not in closure:
                gens.append(x)
                closure = set(subgroup_closure(g, tuple(gens)))
                if not closure.issuperset(gens):
                    raise VerificationError(f"the closure of {gens} lacks a generator")
                break
    return tuple(gens)


def are_isomorphic(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Abstract group isomorphism test.

    Compares the sorted element orders first.  When they tie, searches the
    images in ``b`` of a greedy generating set of ``a`` by element order,
    pruned by pairwise product orders, and compares each full tuple's
    standardized table with the generators': as they generate ``a`` and
    |a| = |b|, the tables are equal exactly when an isomorphism carries one
    to the other.
    """
    if a is b:
        return True
    if sorted(a.element_orders) != sorted(b.element_orders):
        return False
    gens = greedy_generators(a)
    columns = [[row[g] for row in a.mul] for g in gens]
    by_order: dict[int, list[int]] = {}
    for o in {a.element_orders[x] for x in gens}:
        by_order[o] = [y for y in range(b.order) if b.element_orders[y] == o]

    def search(i: int, chosen: tuple[int, ...]) -> bool:
        if i == len(gens):
            images = [[row[g] for row in b.mul] for g in chosen]
            return _same_standard_table(columns, images)
        for cand in by_order[a.element_orders[gens[i]]]:
            ok = True
            for j in range(i):
                if (
                    a.element_orders[a.mul[gens[j]][gens[i]]]
                    != b.element_orders[b.mul[chosen[j]][cand]]
                ):
                    ok = False
                    break
            if ok and search(i + 1, chosen + (cand,)):
                return True
        return False

    return search(0, ())
