"""Finite presentations on involutory generators, and coset enumeration.

Presentation text format (one directive per line, ``#`` starts a comment):

    gens x y s t
    rel x^2
    rel (x y)^2
    rel s (y t)^4

``word = factor+`` and ``factor = name | name^k | ( word )^k`` with k >= 1.
Every generator is taken to be an involution: the enumerator stores a single
symmetric column per generator (g is its own inverse), so words never need
explicit inverses.

The enumerator is the HLT strategy with row filling: cosets are scanned in
creation order against the relators in presentation order, gaps are filled
by defining new cosets, and coincidences are processed immediately with a
union-find over coset numbers.  Identical input yields an identical numbered
table.  Enumerations that would exceed ``max_cosets`` raise
:class:`CapacityExceeded` rather than returning a wrong answer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .groups import FiniteGroup, MarkedGroup, VerificationError, subgroup_closure

Word = tuple[int, ...]
Perm = tuple[int, ...]

DEFAULT_MAX_COSETS = 100_000


class ParseError(ValueError):
    """Presentation text error, carrying 1-based line and column."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class CapacityExceeded(RuntimeError):
    """Raised when an enumeration would define more than max_cosets cosets."""

    def __init__(self, max_cosets: int) -> None:
        super().__init__(f"coset capacity {max_cosets} exceeded")
        self.max_cosets = max_cosets


@dataclass(frozen=True)
class Presentation:
    generator_names: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        if not self.generator_names:
            raise ValueError("a presentation needs at least one generator")
        if len(set(self.generator_names)) != len(self.generator_names):
            raise ValueError("generator names must be distinct")
        ng = len(self.generator_names)
        for w in self.relators:
            if any(not (0 <= g < ng) for g in w):
                raise ValueError("relator references unknown generator")

    @property
    def num_generators(self) -> int:
        return len(self.generator_names)


# ---------------------------------------------------------------------------
# parsing


def _lex(line: str, lineno: int) -> list[tuple[str, str | int, int]]:
    tokens: list[tuple[str, str | int, int]] = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c.isspace():
            i += 1
        elif c in "()^":
            tokens.append((c, c, i + 1))
            i += 1
        elif c.isdigit():
            j = i
            while j < n and line[j].isdigit():
                j += 1
            tokens.append(("int", int(line[i:j]), i + 1))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (line[j].isalnum() or line[j] == "_"):
                j += 1
            tokens.append(("name", line[i:j], i + 1))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", lineno, i + 1)
    return tokens


def _parse_word(
    tokens: list[tuple[str, str | int, int]],
    pos: int,
    index: dict[str, int],
    lineno: int,
    stop_at_close: bool,
) -> tuple[Word, int]:
    word: list[int] = []
    while pos < len(tokens):
        kind, value, col = tokens[pos]
        if kind == ")":
            if stop_at_close:
                break
            raise ParseError("unmatched ')'", lineno, col)
        if kind == "(":
            inner, pos = _parse_word(tokens, pos + 1, index, lineno, True)
            if pos >= len(tokens) or tokens[pos][0] != ")":
                raise ParseError("expected ')'", lineno, col)
            close_col = tokens[pos][2]
            pos += 1
            k, pos = _parse_exponent(tokens, pos, lineno, required=True, at_col=close_col)
            if not inner:
                raise ParseError("empty parenthesized word", lineno, col)
            word.extend(inner * k)
        elif kind == "name":
            g = index.get(value)  # type: ignore[arg-type]
            if g is None:
                raise ParseError(f"unknown generator {value!r}", lineno, col)
            pos += 1
            k, pos = _parse_exponent(tokens, pos, lineno, required=False, at_col=col)
            word.extend([g] * k)
        else:
            raise ParseError(f"unexpected token {value!r}", lineno, col)
    if not word:
        col = tokens[pos - 1][2] if tokens else 1
        raise ParseError("empty word", lineno, col)
    return tuple(word), pos


def _parse_exponent(
    tokens: list[tuple[str, str | int, int]],
    pos: int,
    lineno: int,
    required: bool,
    at_col: int,
) -> tuple[int, int]:
    if pos < len(tokens) and tokens[pos][0] == "^":
        col = tokens[pos][2]
        pos += 1
        if pos >= len(tokens) or tokens[pos][0] != "int":
            raise ParseError("expected integer exponent after '^'", lineno, col)
        k = tokens[pos][1]
        if not isinstance(k, int) or k < 1:
            raise ParseError("exponent must be >= 1", lineno, tokens[pos][2])
        return k, pos + 1
    if required:
        raise ParseError("parenthesized factor requires '^k'", lineno, at_col)
    return 1, pos


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation text format; errors carry line/column."""
    names: tuple[str, ...] | None = None
    index: dict[str, int] = {}
    relators: list[Word] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = _lex(line, lineno)
        kind, value, col = tokens[0]
        if kind != "name":
            raise ParseError("expected 'gens' or 'rel' directive", lineno, col)
        if value == "gens":
            if names is not None:
                raise ParseError("duplicate gens line", lineno, col)
            if len(tokens) < 2:
                raise ParseError("gens line needs at least one name", lineno, col)
            got = []
            for kind2, value2, col2 in tokens[1:]:
                if kind2 != "name":
                    raise ParseError("generator names must be identifiers", lineno, col2)
                if value2 in got:
                    raise ParseError(f"duplicate generator {value2!r}", lineno, col2)
                got.append(value2)  # type: ignore[arg-type]
            names = tuple(got)
            index = {nm: i for i, nm in enumerate(names)}
        elif value == "rel":
            if names is None:
                raise ParseError("rel before gens line", lineno, col)
            word, pos = _parse_word(tokens, 1, index, lineno, False)
            if pos != len(tokens):
                raise ParseError("trailing tokens after word", lineno, tokens[pos][2])
            relators.append(word)
        else:
            raise ParseError(f"unknown directive {value!r}", lineno, col)
    if names is None:
        raise ParseError("missing gens line", 1, 1)
    return Presentation(names, tuple(relators))


# ---------------------------------------------------------------------------
# Todd-Coxeter (HLT with row filling), specialized to involutory generators


@dataclass(frozen=True)
class CosetTable:
    """Completed, compacted coset table: rows over live cosets 0..n-1.

    ``table[c][g]`` is the coset reached from c by the (involutory)
    generator g; the table is symmetric in the sense table[table[c][g]][g] == c.
    """

    table: tuple[tuple[int, ...], ...]

    @property
    def num_cosets(self) -> int:
        return len(self.table)


class _Enumeration:
    def __init__(self, ngens: int, max_cosets: int) -> None:
        self.ngens = ngens
        self.max_cosets = max_cosets
        self.table: list[list[int | None]] = [[None] * ngens]
        self.parent = [0]
        self.queue: deque[int] = deque()

    def rep(self, k: int) -> int:
        p = self.parent
        while p[k] != k:
            p[k] = p[p[k]]
            k = p[k]
        return k

    def alive(self, k: int) -> bool:
        return self.parent[k] == k

    def define(self, a: int, g: int) -> int:
        if len(self.table) >= self.max_cosets:
            raise CapacityExceeded(self.max_cosets)
        b = len(self.table)
        self.table.append([None] * self.ngens)
        self.parent.append(b)
        self.table[a][g] = b
        self.table[b][g] = a
        return b

    def merge(self, a: int, b: int) -> None:
        a, b = self.rep(a), self.rep(b)
        if a != b:
            lo, hi = (a, b) if a < b else (b, a)
            self.parent[hi] = lo
            self.queue.append(hi)

    def coincidence(self, a: int, b: int) -> None:
        self.merge(a, b)
        table = self.table
        while self.queue:
            y = self.queue.popleft()
            row = table[y]
            for g in range(self.ngens):
                d = row[g]
                if d is None:
                    continue
                row[g] = None
                if table[d][g] == y:
                    table[d][g] = None
                mu, nu = self.rep(y), self.rep(d)
                if table[mu][g] is not None:
                    self.merge(nu, table[mu][g])  # type: ignore[arg-type]
                elif table[nu][g] is not None:
                    self.merge(mu, table[nu][g])  # type: ignore[arg-type]
                else:
                    table[mu][g] = nu
                    table[nu][g] = mu

    def scan_and_fill(self, alpha: int, word: Word) -> None:
        table = self.table
        f, b = alpha, alpha
        i, j = 0, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f = table[f][word[i]]  # type: ignore[assignment]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and table[b][word[j]] is not None:
                b = table[b][word[j]]  # type: ignore[assignment]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                g = word[i]
                table[f][g] = b
                table[b][g] = f
                return
            self.define(f, word[i])


def coset_enumerate(
    pres: Presentation,
    subgroup_generators: tuple[Word, ...] | list[Word] = (),
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by the given words.

    Returns the completed live table, renumbered in creation order; its
    number of rows is the subgroup index.  All generators are involutory by
    construction of the table.
    """
    state = _Enumeration(pres.num_generators, max_cosets)
    for w in subgroup_generators:
        state.scan_and_fill(0, tuple(w))
    alpha = 0
    while alpha < len(state.table):
        if not state.alive(alpha):
            alpha += 1
            continue
        for w in pres.relators:
            state.scan_and_fill(alpha, w)
            if not state.alive(alpha):
                break
        if state.alive(alpha):
            for g in range(state.ngens):
                if state.table[alpha][g] is None:
                    state.define(alpha, g)
        alpha += 1

    live = [c for c in range(len(state.table)) if state.alive(c)]
    renumber = {c: i for i, c in enumerate(live)}
    rows = []
    for c in live:
        row = []
        for g in range(state.ngens):
            d = state.table[c][g]
            if d is None:
                raise VerificationError("table incomplete after enumeration")
            row.append(renumber[state.rep(d)])
        rows.append(tuple(row))
    result = CosetTable(tuple(rows))
    _check_table(result, pres, tuple(tuple(w) for w in subgroup_generators))
    return result


def _check_table(ct: CosetTable, pres: Presentation, subgens: tuple[Word, ...]) -> None:
    table = ct.table
    for c, row in enumerate(table):
        for g, d in enumerate(row):
            if table[d][g] != c:
                raise VerificationError("generator column is not an involution")
    for w in subgens:
        c = 0
        for g in w:
            c = table[c][g]
        if c != 0:
            raise VerificationError("subgroup generator does not fix coset 0")
    for c in range(len(table)):
        for w in pres.relators:
            d = c
            for g in w:
                d = table[d][g]
            if d != c:
                raise VerificationError("relator does not close")


def regular_action(pres: Presentation, max_cosets: int = DEFAULT_MAX_COSETS) -> tuple[Perm, ...]:
    """The presented group acting on itself by right multiplication.

    One permutation per generator: the columns of the coset table of the
    trivial subgroup, on |H| points with point 0 the identity.  Its size is
    linear in |H|; no multiplication table is built.
    """
    table = coset_enumerate(pres, (), max_cosets).table
    return tuple(tuple(row[g] for row in table) for g in range(pres.num_generators))


def group_from_action(perms: tuple[Perm, ...], name: str) -> FiniteGroup:
    """Dense group of a regular right action whose point 0 is the identity.

    ``perms[g][h]`` is h times the g-th generator, and point h stands for
    the element carrying 0 to h.  Column b of the table (h -> h*b) is
    reached from the identity column along a breadth-first spanning tree,
    since column b*g is column b followed by perms[g].  Builds |H|^2
    entries, so it is meant for small groups and for tests.
    """
    n = len(perms[0])
    columns: list[list[int] | None] = [None] * n
    columns[0] = list(range(n))
    found = [0]
    for b in found:
        col = columns[b]
        for perm in perms:
            d = perm[b]
            if columns[d] is None:
                columns[d] = [perm[c] for c in col]  # type: ignore[union-attr]
                found.append(d)
    if len(found) != n:
        raise ValueError("the action is not transitive")
    return FiniteGroup(tuple(zip(*columns)), name=name)  # type: ignore[arg-type]


def group_from_presentation(
    pres: Presentation,
    max_cosets: int = DEFAULT_MAX_COSETS,
    name: str | None = None,
) -> MarkedGroup:
    """Concrete group defined by the presentation, via its regular action.

    Enumerates cosets of the trivial subgroup, then builds the dense
    multiplication table of that action (:func:`group_from_action`): coset
    c corresponds to the element carrying coset 0 to c.  The returned group
    is marked with the generator images.
    """
    perms = regular_action(pres, max_cosets)
    group = group_from_action(perms, name or f"fp[{len(perms[0])}]")
    return MarkedGroup(group, tuple(perm[0] for perm in perms))


# ---------------------------------------------------------------------------
# helpers on marked groups


def evaluate_word(group: FiniteGroup, images: tuple[int, ...], word: Word) -> int:
    acc = group.identity
    for g in word:
        acc = group.mul[acc][images[g]]
    return acc


def index_of_even_subgroup(marked: MarkedGroup) -> int:
    """Index (1 or 2) of the subgroup generated by all pairwise products of
    the marked elements.  Requires every marked element to be an involution;
    index 2 is the orientable case."""
    g = marked.group
    for m in marked.marked:
        if g.element_orders[m] != 2:
            raise ValueError("marked element is not an involution")
    products = tuple(
        g.mul[u][v] for u in marked.marked for v in marked.marked
    )
    size = len(subgroup_closure(g, products))
    index, remainder = divmod(g.order, size)
    if remainder or index not in (1, 2):
        raise VerificationError(f"even subgroup has unexpected index {index}")
    return index
