"""Tests for the presentation text format and coset enumeration.

All generators in this format are involutions by construction: the coset
table keeps a single column per generator and scans words as their own
inverses, which is exactly right for groups generated by reflections.
Each `rel` line carries one relator word.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ebrmaps
from ebrmaps.groups import (
    VerificationError,
    are_isomorphic,
    dihedral,
    subgroup_closure,
)
from ebrmaps import families, presentations
from ebrmaps.presentations import (
    MAX_NESTING,
    MAX_RELATOR_LENGTH,
    CapacityExceeded,
    ParseError,
    Presentation,
    _check_table,
    coset_enumerate,
    parse_presentation,
    regular_action,
)
from references import (
    group_from_action,
    group_from_presentation,
    index_of_even_subgroup,
    is_abelian,
)

DIHEDRAL_12 = """\
gens a b
rel a^2
rel b^2
rel (a b)^6
"""


def _reflection_presentation(*pair_orders: tuple[str, str, int]) -> str:
    """Presentation of a reflection group from (gen, gen, product order) triples."""
    names = sorted({nm for a, b, _ in pair_orders for nm in (a, b)})
    lines = ["gens " + " ".join(names)]
    lines += [f"rel {nm}^2" for nm in names]
    lines += [f"rel ({a} {b})^{k}" for a, b, k in pair_orders]
    return "\n".join(lines) + "\n"


def test_parse_basics():
    pres = parse_presentation(DIHEDRAL_12)
    assert pres.generator_names == ("a", "b")
    assert pres.num_generators == 2
    # words are tuples of generator indices
    assert pres.relators == ((0, 0), (1, 1), (0, 1) * 6)


def test_parse_comments_and_blank_lines():
    text = """
# leading comment
gens x y   # trailing comment

rel x^2
rel y^2    # relator with comment
rel (x y)^3
"""
    pres = parse_presentation(text)
    assert pres.generator_names == ("x", "y")
    assert len(pres.relators) == 3


def test_parse_words_concatenate_factors():
    pres = parse_presentation("gens a b\nrel (a b)^2 a^3 b\n")
    # one rel line is one word: factors concatenate
    assert pres.relators == ((0, 1, 0, 1, 0, 0, 0, 1),)
    nested = parse_presentation("gens a b\nrel ((a b)^2 a)^2\n")
    assert nested.relators == ((0, 1, 0, 1, 0) * 2,)


def test_parse_keeps_written_powers():
    pres = parse_presentation("gens a b\nrel (a b)^2 a^3 b\nrel ((a b)^2 a)^2 (b)^1\n")
    assert pres.relator_forms == (
        (((0, 1), 2), ((0,), 3), 1),
        (((((0, 1), 2), 0), 2), 1),
    )
    # written without powers, the same relators expand to the same words
    flat = Presentation(pres.generator_names, pres.relators)
    assert (flat.generator_names, flat.relators) == (pres.generator_names, pres.relators)
    assert flat.relator_forms == flat.relators
    with pytest.raises(ValueError):
        Presentation(("a", "b"), ((((0, 1), 0),),))


def test_parse_bounds_expanded_length():
    limit = MAX_RELATOR_LENGTH
    assert len(parse_presentation(f"gens a b\nrel (a b)^{limit // 2}\n").relators[0]) == limit
    for rel in (
        f"(a b)^{limit // 2} a",
        f"a^{limit + 1}",
        "(a b)^100000000",
        "((a b)^1000 a)^1000",
        f"b (a b)^{limit // 2}",
    ):
        with pytest.raises(ParseError) as exc:
            parse_presentation(f"gens a b\nrel {rel}\n")
        assert exc.value.line == 2
        assert "letters" in str(exc.value)


def test_presentation_bounds_the_expansion_of_hand_built_forms():
    limit = MAX_RELATOR_LENGTH
    # 1000 * 1000 letters, nested, is exactly the limit
    assert len(Presentation(("a",), ((((((0,), 1000),), 1000),),)).relators[0]) == limit
    for form in (
        (((0,), limit + 1),),
        (((((0,), 1000),), 1001),),
    ):
        with pytest.raises(ValueError, match=f"more than {limit}"):
            Presentation(("a",), (form,))


def test_nesting_is_bounded_before_any_recursion():
    # a parenthesis and a hand-built power nested 3,000 deep once exhausted
    # the recursion of the parser and of the length check
    ok, deep = MAX_NESTING, 3000
    text = "gens x y\nrel {}x{}\n"
    assert parse_presentation(text.format("(" * ok, ")^1" * ok)).relators == ((0,),)
    with pytest.raises(ParseError) as exc:
        parse_presentation(text.format("(" * deep, ")^1" * deep))
    assert (exc.value.line, exc.value.column) == (2, len("rel (") + ok)
    assert f"parentheses nest more than {ok} deep" in str(exc.value)

    def nested(depth):
        form = (0,)
        for _ in range(depth):
            form = ((form, 1),)
        return form

    assert Presentation(("a",), (nested(ok),)).relators == ((0,),)
    for depth in (ok + 1, deep):
        with pytest.raises(ValueError, match=f"^relator nests powers more than {ok} deep$"):
            Presentation(("a",), (nested(depth),))


def test_parse_errors_carry_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse_presentation("gens a b\nrel a c\n")
    assert exc.value.line == 2
    assert exc.value.column > 1
    assert "line 2" in str(exc.value)

    with pytest.raises(ParseError):
        parse_presentation("rel a^2\n")  # rel before gens
    with pytest.raises(ParseError):
        parse_presentation("gens a\ngens b\n")  # duplicate gens line
    with pytest.raises(ParseError):
        parse_presentation("gens a a\n")  # duplicate generator name
    with pytest.raises(ParseError):
        parse_presentation("")  # missing gens line
    with pytest.raises(ParseError):
        parse_presentation("frobnicate a\n")  # unknown directive
    with pytest.raises(ParseError):
        parse_presentation("gens a b\nrel (a b)\n")  # parens need an exponent
    with pytest.raises(ParseError):
        parse_presentation("gens a b\nrel a^0\n")  # exponent must be positive
    with pytest.raises(ParseError):
        parse_presentation("gens a b\nrel a)\n")  # unmatched close paren
    with pytest.raises(ParseError):
        parse_presentation("gens a b\nrel\n")  # empty word


@pytest.mark.parametrize(
    ("text", "message", "line", "column"),
    [
        ("gens a b\nrel (a b\n", "expected ')'", 2, 5),
        ("gens a b\nrel a 3\n", "unexpected token 3", 2, 7),
        ("gens a b\nrel a^\n", "expected integer exponent after '^'", 2, 6),
        ("gens a b\nrel a^b\n", "expected integer exponent after '^'", 2, 6),
        ("gens a\n^2\n", "expected 'gens' or 'rel' directive", 2, 1),
        ("gens\n", "gens line needs at least one name", 1, 1),
        ("gens a (\n", "generator names must be identifiers", 1, 8),
        # the inner word is empty before the exponent is read
        ("gens a b\nrel ()^2\n", "empty word", 2, 5),
    ],
)
def test_parse_error_message_and_position(text, message, line, column):
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert str(exc.value) == f"line {line}, column {column}: {message}"
    assert (exc.value.line, exc.value.column) == (line, column)


def test_parse_rejects_non_ascii_digits():
    # str.isdigit accepts both; only 0-9 make an exponent
    for exponent in ("\u00b3", "\u0663"):  # superscript three, Arabic-Indic three
        with pytest.raises(ParseError) as exc:
            parse_presentation(f"gens x y\nrel (x y)^{exponent}\n")
        assert (exc.value.line, exc.value.column) == (2, 11)
        assert "unexpected character" in str(exc.value)


def test_error_hierarchy():
    assert issubclass(ParseError, ValueError)
    assert issubclass(CapacityExceeded, RuntimeError)


def test_presentation_validates():
    with pytest.raises(ValueError):
        Presentation((), ())
    with pytest.raises(ValueError):
        Presentation(("a",), ((1,),))  # relator references unknown generator
    with pytest.raises(ValueError, match="generator names must be distinct"):
        Presentation(("a", "a"), ())
    # an empty relator is allowed, and closes at every coset
    assert coset_enumerate(Presentation(("a",), ((), (0, 0)))).num_cosets == 2


def test_coset_enumeration_dihedral_orders():
    # <a, b | a^2, b^2, (ab)^m> is dihedral of order 2m
    for m in (1, 2, 3, 6, 12):
        pres = parse_presentation(_reflection_presentation(("a", "b", m)))
        assert coset_enumerate(pres).num_cosets == 2 * m


def test_coset_enumeration_subgroup_index():
    pres = parse_presentation(DIHEDRAL_12)
    # the rotation subgroup <ab> has index 2
    assert coset_enumerate(pres, [(0, 1)]).num_cosets == 2
    # <a> has index 6 in D12
    assert coset_enumerate(pres, [(0,)]).num_cosets == 6


def test_subgroup_words_name_only_known_generators():
    # a negative index is no generator, though Python would read it as one
    # counted from the end; an index past the last is no generator either
    pres = parse_presentation(_reflection_presentation(("a", "b", 3)))
    for word in ((-1,), (2,), (0, -2)):
        with pytest.raises(ValueError, match="^subgroup generator references unknown generator$"):
            coset_enumerate(pres, [word])
    with pytest.raises(ValueError, match="^subgroup generator references unknown generator$"):
        regular_action(pres, (-1, -2))
    assert coset_enumerate(pres, [(1,)]).num_cosets == 3


def test_coset_enumeration_reflection_groups():
    # spherical reflection groups of the tetrahedron and octahedron
    tetra = _reflection_presentation(("a", "b", 3), ("b", "c", 3), ("a", "c", 2))
    assert coset_enumerate(parse_presentation(tetra)).num_cosets == 24
    octa = _reflection_presentation(("a", "b", 4), ("b", "c", 3), ("a", "c", 2))
    assert coset_enumerate(parse_presentation(octa)).num_cosets == 48


def test_capacity_exceeded():
    # the (2,3,7) reflection triangle group is infinite
    text = _reflection_presentation(("a", "b", 2), ("b", "c", 3), ("a", "c", 7))
    with pytest.raises(CapacityExceeded) as exc:
        coset_enumerate(parse_presentation(text), max_cosets=500)
    assert exc.value.max_cosets == 500


def test_group_from_presentation_dihedral():
    g, (a, b) = group_from_presentation(parse_presentation(DIHEDRAL_12))
    assert g.order == 12
    assert g.element_orders[a] == 2
    assert g.element_orders[b] == 2
    assert g.element_orders[g.mul[a][b]] == 6
    assert are_isomorphic(g, dihedral(12))


def test_group_from_presentation_four_generators():
    # four commuting involutions: elementary abelian of order 16
    text = (
        "gens x y s t\n"
        + "".join(f"rel {nm}^2\n" for nm in "xyst")
        + "".join(
            f"rel ({a} {b})^2\n"
            for a, b in ("xy", "xs", "xt", "ys", "yt", "st")
        )
    )
    group, marks = group_from_presentation(parse_presentation(text))
    assert group.order == 16
    assert is_abelian(group)
    assert len(set(marks)) == 4


def test_trivial_relator_collapse():
    # forcing a = b collapses D12 onto C2
    text = DIHEDRAL_12 + "rel a b\n"
    group, _ = group_from_presentation(parse_presentation(text))
    assert group.order == 2


def test_index_of_even_subgroup_two():
    # two reflections of a dihedral group: rotations form the index-2 subgroup
    assert index_of_even_subgroup((dihedral(12), (6, 7))) == 2
    tetra = _reflection_presentation(("a", "b", 3), ("b", "c", 3), ("a", "c", 2))
    marked = group_from_presentation(parse_presentation(tetra))
    assert index_of_even_subgroup(marked) == 2


def test_index_of_even_subgroup_one():
    # in the Klein four group marked with its three involutions, pairwise
    # products already cover the whole group: no index-2 "even" subgroup
    v4, _ = group_from_presentation(
        parse_presentation(
            "gens a b\nrel a^2\nrel b^2\nrel (a b)^2\n"
        )
    )
    assert v4.order == 4
    invs = [g for g in range(4) if v4.element_orders[g] == 2]
    assert index_of_even_subgroup((v4, tuple(invs))) == 1


def test_index_of_even_subgroup_rejects_non_involutions():
    with pytest.raises(ValueError):
        index_of_even_subgroup((dihedral(12), (1, 6)))


def test_coset_table_marks_generate():
    group, marks = group_from_presentation(parse_presentation(DIHEDRAL_12))
    assert len(subgroup_closure(group, marks)) == 12


def _sympy_group(pres: Presentation):
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    free = free_group(", ".join(pres.generator_names))
    F, gens = free[0], free[1:]
    rels = []
    for word in pres.relators:
        expr = F.identity
        for idx in word:
            expr = expr * gens[idx]
        rels.append(expr)
    return FpGroup(F, rels)


def test_against_sympy_coset_enumeration():
    pytest.importorskip("sympy")
    cases = [
        ("gens a b\nrel a^2\nrel b^2\nrel (a b)^6\n", 12),
        (_reflection_presentation(("a", "b", 3), ("b", "c", 3), ("a", "c", 2)), 24),
        (_reflection_presentation(("a", "b", 4), ("b", "c", 3), ("a", "c", 2)), 48),
    ]
    for text, expected in cases:
        pres = parse_presentation(text)
        assert coset_enumerate(pres).num_cosets == expected
        assert _sympy_group(pres).order() == expected


def test_index_agrees_with_sympy_on_random_presentations():
    pytest.importorskip("sympy")
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from sympy.combinatorics.coset_table import coset_enumeration_r

    # finite Coxeter groups: any dihedral one, and rank 3 when the three
    # product orders satisfy 1/m1 + 1/m2 + 1/m3 > 1; extra relators only
    # pass to a quotient, so every group drawn is finite (order <= 48)
    rank_three = st.sampled_from(
        [m for m in itertools.product(range(2, 5), repeat=3) if sum(1 / k for k in m) > 1]
    )

    @settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def check(data):
        names = "abc"[: data.draw(st.integers(2, 3))]
        if len(names) == 2:
            orders = [("a", "b", data.draw(st.integers(1, 8)))]
        else:
            m1, m2, m3 = data.draw(rank_three)
            orders = [("a", "b", m1), ("b", "c", m2), ("a", "c", m3)]
        extra = data.draw(
            st.lists(st.lists(st.sampled_from(names), min_size=1, max_size=6), max_size=2)
        )
        text = _reflection_presentation(*orders) + "".join(f"rel {' '.join(w)}\n" for w in extra)
        pres = parse_presentation(text)
        # sympy's own HLT enumeration; FpGroup.order() and .index() first
        # simplify the presentation, which does not finish on some of these
        # (e.g. (a b)^2, (b c)^2, (a c)^3 with the extra relator a b)
        sympy_table = coset_enumeration_r(_sympy_group(pres), [])
        sympy_table.compress()
        assert coset_enumerate(pres).num_cosets == len(sympy_table.table)

    check()


def test_regular_action_is_the_coset_table():
    pres = parse_presentation(DIHEDRAL_12)
    perms = regular_action(pres)
    assert perms == coset_enumerate(pres).columns
    group = group_from_action(perms, "D12")
    assert group.mul == group_from_presentation(pres)[0].mul
    with pytest.raises(ValueError, match="the action is not transitive"):
        group_from_action(((1, 0, 2), (1, 0, 2)), "intransitive")


_BROKEN_TABLE = """
from ebrmaps.presentations import _check_table, parse_presentation

assert False, "assert statements must be stripped"
pres = parse_presentation("gens a b\\nrel a^2\\nrel b^2\\nrel (a b)^3\\n")
_check_table(((1, 0), (0, 1)), pres, ())
"""


def test_check_table_survives_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(ebrmaps.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_TABLE],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last == "ebrmaps.groups.VerificationError: relator does not close"


# --- the early stop and the closure check ----------------------------------

_S4_CERTIFICATE = families.presentation_text(("(t y)^4", "(s x y)^2 t", "t x t y"))


def _enumeration_cases():
    texts = []
    for p in (3, 5, 13, 31):
        texts += [families.dh1(p).text, families.dh2(p).text]
    for p in (5, 13, 41):
        texts += [families.hpj(*q).text for q in families.cyclic_fitting_params(p)]
    texts += [families.hp(m).text for m in (1, 3, 5)]
    cases = [(parse_presentation(text), ()) for text in texts]
    cases.append((parse_presentation(_S4_CERTIFICATE), ((2, 0, 2, 0, 2, 0),)))  # (s x)^3
    cases.append((parse_presentation(DIHEDRAL_12), ((0,),)))
    return cases


def _force_full_sweep(monkeypatch):
    monkeypatch.setattr(presentations._Enumeration, "closing_table", lambda self: None)


def test_early_stop_returns_the_full_sweep_table(monkeypatch):
    cases = _enumeration_cases()
    stopped = []
    closing_table = presentations._Enumeration.closing_table

    def recording(self):
        table = closing_table(self)
        stopped.append(table is not None)
        return table

    monkeypatch.setattr(presentations._Enumeration, "closing_table", recording)
    early = [coset_enumerate(pres, subgens).columns for pres, subgens in cases]
    assert stopped == [True] * len(cases)
    _force_full_sweep(monkeypatch)
    assert [coset_enumerate(pres, subgens).columns for pres, subgens in cases] == early


def test_early_stop_skips_scans(monkeypatch):
    pres = parse_presentation(families.dh1(31).text)
    scans = []
    scan_and_fill = presentations._Enumeration.scan_and_fill

    def counting(self, alpha, word):
        scans.append(alpha)
        scan_and_fill(self, alpha, word)

    monkeypatch.setattr(presentations._Enumeration, "scan_and_fill", counting)
    coset_enumerate(pres)
    early = len(scans)
    scans.clear()
    _force_full_sweep(monkeypatch)
    coset_enumerate(pres)
    assert early < len(scans)


def _capacity_threshold(pres, subgens) -> tuple[int, tuple]:
    """The least max_cosets the enumeration fits in, and its table."""
    lo, hi = 1, 4096  # coset_enumerate(max_cosets=hi) succeeds for every case
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            coset_enumerate(pres, subgens, max_cosets=mid)
        except CapacityExceeded:
            lo = mid + 1
        else:
            hi = mid
    with pytest.raises(CapacityExceeded):
        coset_enumerate(pres, subgens, max_cosets=lo - 1)
    return lo, coset_enumerate(pres, subgens, max_cosets=lo).columns


def test_capacity_thresholds_unchanged_by_early_stop(monkeypatch):
    cases = [
        (parse_presentation(families.dh1(5).text), ()),
        (parse_presentation(families.dh2(13).text), ()),
        (parse_presentation(families.hpj(1, 15, 1).text), ()),
        (parse_presentation(families.hp(1).text), ()),
        (parse_presentation(_S4_CERTIFICATE), ((2, 0, 2, 0, 2, 0),)),
    ]
    infinite = parse_presentation(
        _reflection_presentation(("a", "b", 2), ("b", "c", 3), ("a", "c", 7))
    )
    early = [_capacity_threshold(pres, subgens) for pres, subgens in cases]
    _force_full_sweep(monkeypatch)
    assert [_capacity_threshold(pres, subgens) for pres, subgens in cases] == early
    with pytest.raises(CapacityExceeded):
        coset_enumerate(infinite, max_cosets=300)


def test_check_table_rejects_a_power_failing_at_some_cosets():
    # a = (0 1)(3 4)(5 6) and b = (1 2)(4 5): a b is (0 2 1)(3 5 6 4)
    table = ((1, 0, 2, 4, 3, 6, 5), (0, 2, 1, 3, 5, 4, 6))
    for k, closes in ((3, False), (4, False), (12, True)):
        pres = parse_presentation(f"gens a b\nrel a^2\nrel b^2\nrel (a b)^{k}\n")
        flat = Presentation(pres.generator_names, pres.relators)  # written without powers
        for p in (pres, flat):
            if closes:
                _check_table(table, p, ())
            else:
                with pytest.raises(VerificationError, match="relator does not close"):
                    _check_table(table, p, ())
    # on the cosets 0..2 alone, (a b)^3 closes
    _check_table(((1, 0, 2), (0, 2, 1)), parse_presentation(DIHEDRAL_12[:-2] + "3\n"), ())


def test_check_table_takes_powers_without_expanding_them():
    reads = [0]

    class Column(tuple):
        def __getitem__(self, i):
            reads[0] += 1
            return tuple.__getitem__(self, i)

    d6 = coset_enumerate(parse_presentation("gens a b\nrel a^2\nrel b^2\nrel (a b)^3\n"))
    pres = parse_presentation("gens a b\nrel a^2\nrel b^2\nrel (a b)^300000\n")
    assert len(pres.relators[2]) == 600_000
    _check_table(tuple(Column(col) for col in d6.columns), pres, ())
    # a walk along the expanded word would read the columns 3.6 million times
    assert reads[0] < 20 * d6.num_cosets
