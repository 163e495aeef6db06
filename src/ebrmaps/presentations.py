"""Finite presentations on involutory generators, and coset enumeration.

Presentation text format (one directive per line, ``#`` starts a comment):

    gens x y s t
    rel x^2
    rel (x y)^2
    rel s (y t)^4

``word = factor+`` and ``factor = name | name^k | ( word )^k`` with k >= 1.
Every generator is taken to be an involution: the enumerator stores a single
symmetric column per generator (g is its own inverse), so words never need
explicit inverses.  A relator may expand to at most ``MAX_RELATOR_LENGTH``
letters; the parser and :class:`Presentation` check this from the lengths
of the factors, before anything is expanded.  A :class:`Presentation` keeps each relator once, as
written, powers included, and expands it once into ``relators``.

The enumerator is the HLT strategy with row filling: cosets are scanned in
creation order against the relators in presentation order, gaps are filled
by defining new cosets, and coincidences are processed immediately with a
union-find over coset numbers.  The table is kept by column, one list per
generator.  The first time no live coset has an undefined entry, the table
is compacted and every relator is checked at every coset; if they all
close, the enumeration stops there, since every later HLT step would
define nothing and merge nothing.  That check composes the columns along
the written form, taking each power ``(w)^k`` of w's permutation by
repeated squaring, so it costs O(|H| x written size x log k) rather than
O(|H| x expanded length).  Identical input yields an identical numbered
table.  Enumerations that would exceed ``max_cosets`` raise
:class:`CapacityExceeded` rather than returning a wrong answer.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from .groups import DEFAULT_MAX_COSETS, Perm, VerificationError, _Record

Word = tuple[int, ...]
# A written word: each factor is a generator or a pair (form, k) for form^k.
Form = tuple["int | tuple[Form, int]", ...]

MAX_RELATOR_LENGTH = 1_000_000


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


class Presentation(_Record):
    """Generators and relators, each relator kept once as written, with its
    powers (a plain word is a form with no powers).  ``relators`` holds
    their expansions, each at most ``MAX_RELATOR_LENGTH`` letters; equality
    compares those, so it ignores how powers were written."""

    _fields = ("generator_names", "relators")

    def __init__(self, generator_names: tuple[str, ...], relator_forms: tuple[Form, ...]) -> None:
        if not generator_names:
            raise ValueError("a presentation needs at least one generator")
        if len(set(generator_names)) != len(generator_names):
            raise ValueError("generator names must be distinct")
        for f in relator_forms:
            if (length := _length(f)) > MAX_RELATOR_LENGTH:
                raise ValueError(
                    f"relator expands to {length} letters, more than {MAX_RELATOR_LENGTH}"
                )
        relators = tuple(_expand(f) for f in relator_forms)
        ng = len(generator_names)
        for w in relators:
            if any(not (0 <= g < ng) for g in w):
                raise ValueError("relator references unknown generator")
        self.generator_names = generator_names
        self.relator_forms = relator_forms
        self.relators = relators

    @property
    def num_generators(self) -> int:
        return len(self.generator_names)


def _length(form: Form) -> int:
    """The number of letters that form expands to, found without expanding it."""
    return sum(1 if isinstance(f, int) else _length(f[0]) * f[1] for f in form)


def _expand(form: Form) -> Word:
    word: list[int] = []
    for factor in form:
        if isinstance(factor, int):
            word.append(factor)
        else:
            inner, k = factor
            if k < 1:
                raise ValueError("powers in relator forms must be >= 1")
            word.extend(_expand(inner) * k)
    return tuple(word)


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
        elif "0" <= c <= "9":  # not str.isdigit, which takes other scripts
            j = i
            while j < n and "0" <= line[j] <= "9":
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


def _check_length(length: int, lineno: int, col: int) -> None:
    if length > MAX_RELATOR_LENGTH:
        raise ParseError(
            f"word expands to {length} letters, more than {MAX_RELATOR_LENGTH}", lineno, col
        )


def _parse_word(
    tokens: list[tuple[str, str | int, int]],
    pos: int,
    index: dict[str, int],
    lineno: int,
    stop_at_close: bool,
) -> tuple[Form, int, int]:
    """The written form from tokens[pos], its expanded length and the
    position after it."""
    form: list[int | tuple[Form, int]] = []
    length = 0
    while pos < len(tokens):
        kind, value, col = tokens[pos]
        if kind == ")":
            if stop_at_close:
                break
            raise ParseError("unmatched ')'", lineno, col)
        if kind == "(":
            inner_form, inner_length, pos = _parse_word(tokens, pos + 1, index, lineno, True)
            if pos >= len(tokens):
                raise ParseError("expected ')'", lineno, col)
            close_col = tokens[pos][2]
            pos += 1
            k, pos = _parse_exponent(tokens, pos, lineno, required=True, at_col=close_col)
            length += inner_length * k
            _check_length(length, lineno, col)
            if k == 1:
                form.extend(inner_form)
            else:
                form.append((inner_form, k))
        elif kind == "name":
            g = index.get(value)  # type: ignore[arg-type]
            if g is None:
                raise ParseError(f"unknown generator {value!r}", lineno, col)
            pos += 1
            k, pos = _parse_exponent(tokens, pos, lineno, required=False, at_col=col)
            length += k
            _check_length(length, lineno, col)
            form.append(g if k == 1 else ((g,), k))
        else:
            raise ParseError(f"unexpected token {value!r}", lineno, col)
    if not form:
        col = tokens[pos - 1][2] if tokens else 1
        raise ParseError("empty word", lineno, col)
    return tuple(form), length, pos


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
    forms: list[Form] = []
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
            forms.append(_parse_word(tokens, 1, index, lineno, False)[0])
        else:
            raise ParseError(f"unknown directive {value!r}", lineno, col)
    if names is None:
        raise ParseError("missing gens line", 1, 1)
    return Presentation(names, tuple(forms))


# ---------------------------------------------------------------------------
# Todd-Coxeter (HLT with row filling), specialized to involutory generators


class CosetTable(_Record):
    """Completed, compacted coset table on live cosets 0..n-1, by column.

    ``columns[g][c]`` is the coset reached from c by the (involutory)
    generator g, so each column is the permutation of the cosets by g and
    columns[g][columns[g][c]] == c.
    """

    _fields = ("columns",)

    def __init__(self, columns: tuple[Perm, ...]) -> None:
        self.columns = columns

    @property
    def num_cosets(self) -> int:
        return len(self.columns[0])


class _Enumeration:
    def __init__(self, pres: Presentation, subgens: tuple[Word, ...], max_cosets: int) -> None:
        self.pres = pres
        self.subgens = subgens
        self.max_cosets = max_cosets
        self.columns: list[list[int | None]] = [[None] for _ in range(pres.num_generators)]
        self.parent = [0]
        self.queue: deque[int] = deque()

    def rep(self, k: int) -> int:
        p = self.parent
        while p[k] != k:
            p[k] = p[p[k]]
            k = p[k]
        return k

    def define(self, a: int, col: list[int | None]) -> None:
        b = len(self.parent)
        if b >= self.max_cosets:
            raise CapacityExceeded(self.max_cosets)
        for column in self.columns:
            column.append(None)
        self.parent.append(b)
        col[a] = b
        col[b] = a

    def merge(self, a: int, b: int) -> None:
        a, b = self.rep(a), self.rep(b)
        if a != b:
            lo, hi = (a, b) if a < b else (b, a)
            self.parent[hi] = lo
            self.queue.append(hi)

    def coincidence(self, a: int, b: int) -> None:
        self.merge(a, b)
        while self.queue:
            y = self.queue.popleft()
            for col in self.columns:
                d = col[y]
                if d is None:
                    continue
                col[y] = None
                if col[d] == y:
                    col[d] = None
                mu, nu = self.rep(y), self.rep(d)
                if col[mu] is not None:
                    self.merge(nu, col[mu])  # type: ignore[arg-type]
                elif col[nu] is not None:
                    self.merge(mu, col[nu])  # type: ignore[arg-type]
                else:
                    col[mu] = nu
                    col[nu] = mu

    def scan_and_fill(self, alpha: int, word: tuple[list[int | None], ...]) -> None:
        """Scan the word, given as its letters' columns, from alpha."""
        f, b = alpha, alpha
        i, j = 0, len(word) - 1
        while True:
            for i in range(i, j + 1):
                nxt = word[i][f]
                if nxt is None:
                    break
                f = nxt
            else:
                if f != b:
                    self.coincidence(f, b)
                return
            for j in range(j, i - 1, -1):
                nxt = word[j][b]
                if nxt is None:
                    break
                b = nxt
            else:
                self.coincidence(f, b)
                return
            col = word[i]
            if j == i:
                col[f] = b
                col[b] = f
                return
            self.define(f, col)

    def compact(self) -> CosetTable | None:
        """The live table renumbered in creation order; None if it has a gap."""
        parent = self.parent
        live = [c for c in range(len(parent)) if parent[c] == c]
        renumber = {c: i for i, c in enumerate(live)}
        columns = []
        for col in self.columns:
            entries = [col[c] for c in live]
            if None in entries:
                return None
            columns.append(tuple(renumber[self.rep(d)] for d in entries))  # type: ignore[arg-type]
        return CosetTable(tuple(columns))

    def closing_table(self) -> CosetTable | None:
        """The compacted table if it is complete and passes every check of
        :func:`_check_table`, else None."""
        table = self.compact()
        if table is None or _table_fault(table, self.pres, self.subgens) is not None:
            return None
        return table

    def run(self) -> CosetTable:
        columns, parent = self.columns, self.parent
        for w in self.subgens:
            self.scan_and_fill(0, tuple(columns[g] for g in w))
        relators = [tuple(columns[g] for g in w) for w in self.pres.relators]
        # every live coset below `full` has a full row; rows never lose an
        # entry, so the pointer only moves forward.  Once complete, the table
        # stays complete (a definition needs a gap), so it is checked once.
        full: int | None = 0
        alpha = 0
        while alpha < len(parent):
            if parent[alpha] == alpha:
                for word in relators:
                    self.scan_and_fill(alpha, word)
                    if parent[alpha] != alpha:
                        break
                else:
                    for col in columns:
                        if col[alpha] is None:
                            self.define(alpha, col)
            alpha += 1
            if full is not None:
                n = len(parent)
                while full < n and (
                    parent[full] != full or all(col[full] is not None for col in columns)
                ):
                    full += 1
                if full == n:
                    full = None
                    table = self.closing_table()
                    if table is not None:
                        return table
        table = self.compact()
        if table is None:
            raise VerificationError("table incomplete after enumeration")
        _check_table(table, self.pres, self.subgens)
        return table


def coset_enumerate(
    pres: Presentation,
    subgroup_generators: tuple[Word, ...] | list[Word] = (),
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by the given words.

    Returns the completed live table, renumbered in creation order; its
    number of cosets is the subgroup index.  All generators are involutory
    by construction of the table.  Before it is returned the table is
    checked: every column is an involution, every subgroup generator fixes
    coset 0 and every relator closes at every coset; a failure raises
    VerificationError.
    """
    subgens = tuple(tuple(w) for w in subgroup_generators)
    return _Enumeration(pres, subgens, max_cosets).run()


def _power(perm: Sequence[int], k: int) -> Sequence[int]:
    """perm^k by repeated squaring: about 2 log2(k) passes over the points.

    A walk over the cycles would take one pass, but a slow one on the
    involutions that most relators raise to a small power.
    """
    result: Sequence[int] | None = None
    while True:
        if k & 1:
            result = perm if result is None else [perm[c] for c in result]
        k >>= 1
        if not k:
            return result  # type: ignore[return-value]
        perm = [perm[c] for c in perm]


def _word_permutation(form: Form, columns: tuple[Perm, ...]) -> Sequence[int]:
    """The permutation of the cosets by a written word, read left to right:
    one pass per factor, plus the passes of each power."""
    perm: Sequence[int] | None = None
    for factor in form:
        if isinstance(factor, int):
            step: Sequence[int] = columns[factor]
        else:
            inner, k = factor
            step = _power(_word_permutation(inner, columns), k)
        perm = step if perm is None else [step[c] for c in perm]
    return perm  # type: ignore[return-value]


def _table_fault(ct: CosetTable, pres: Presentation, subgens: tuple[Word, ...]) -> str | None:
    """The first way ct fails to be a coset table of the presentation in
    which every subgroup generator fixes coset 0, or None."""
    columns = ct.columns
    identity = list(range(ct.num_cosets))
    for col in columns:
        if [col[d] for d in col] != identity:
            return "generator column is not an involution"
    for w in subgens:
        c = 0
        for g in w:
            c = columns[g][c]
        if c != 0:
            return "subgroup generator does not fix coset 0"
    for form in pres.relator_forms:
        if form and list(_word_permutation(form, columns)) != identity:
            return "relator does not close"
    return None


def _check_table(ct: CosetTable, pres: Presentation, subgens: tuple[Word, ...]) -> None:
    fault = _table_fault(ct, pres, subgens)
    if fault is not None:
        raise VerificationError(fault)


def regular_action(pres: Presentation, max_cosets: int = DEFAULT_MAX_COSETS) -> tuple[Perm, ...]:
    """The presented group acting on itself by right multiplication.

    One permutation per generator: the columns of the coset table of the
    trivial subgroup, on |H| points with point 0 the identity.  Its size is
    linear in |H|; no multiplication table is built.
    """
    return coset_enumerate(pres, (), max_cosets).columns


def cyclic_order_certificate(
    pres: Presentation, w: Word, max_cosets: int = DEFAULT_MAX_COSETS
) -> int | None:
    """|G| = [G:K] * |K| for K = <w>, or None when K is infinite.

    Enumerates the cosets of K, then rewrites every relator, and g g for
    every generator, from every coset into abelianized Schreier generators
    over a breadth-first transversal (Reidemeister-Schreier; Holt, Eick
    and O'Brien, Handbook of Computational Group Theory, section 2.5).  A
    generator is an involution, so the edges (c, g) and (c g, g) share one
    variable with opposite signs; tree edges are trivial.  K is cyclic, so
    it equals its abelianization Z^m / (row lattice), whose order is the
    lattice index.  The cost is the enumeration plus [G:K] passes over the
    expanded relators.
    """
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
    rows = []
    for word in (*pres.relators, *((g, g) for g in range(len(columns)))):
        for start in range(n):
            row = [0] * m
            c = start
            for g in word:
                v = coefficient[g][c]
                if v:
                    row[abs(v) - 1] += 1 if v > 0 else -1
                c = columns[g][c]
            rows.append(row)
    order = _lattice_index(rows, m)
    return None if order is None else n * order


def _lattice_index(rows: list[list[int]], m: int) -> int | None:
    """|Z^m / span(rows)| by gcd row reduction to echelon form, or None
    when the rows have rank below m."""
    index = 1
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
        index *= abs(pivot[j])
        rows = rest
    return index
