"""Tests for the presentation text format and coset enumeration.

All generators in this format are involutions by construction: the coset
table keeps a single column per generator and scans words as their own
inverses, which is exactly right for groups generated by reflections.
Each `rel` line carries one relator word.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ebrmaps
from ebrmaps.groups import MarkedGroup, are_isomorphic, dihedral, subgroup_closure
from ebrmaps.presentations import (
    CapacityExceeded,
    ParseError,
    Presentation,
    coset_enumerate,
    evaluate_word,
    group_from_action,
    group_from_presentation,
    index_of_even_subgroup,
    parse_presentation,
    regular_action,
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


def test_error_hierarchy():
    assert issubclass(ParseError, ValueError)
    assert issubclass(CapacityExceeded, RuntimeError)


def test_presentation_validates():
    with pytest.raises(ValueError):
        Presentation((), ())
    with pytest.raises(ValueError):
        Presentation(("a",), ((1,),))  # relator references unknown generator


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
    marked = group_from_presentation(parse_presentation(DIHEDRAL_12))
    g = marked.group
    assert g.order == 12
    a, b = marked.marked
    assert g.element_orders[a] == 2
    assert g.element_orders[b] == 2
    assert g.element_orders[g.mul[a][b]] == 6
    assert are_isomorphic(g, dihedral(12).group)


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
    marked = group_from_presentation(parse_presentation(text))
    assert marked.group.order == 16
    assert marked.group.is_abelian()
    assert len(set(marked.marked)) == 4


def test_trivial_relator_collapse():
    # forcing a = b collapses D12 onto C2
    text = DIHEDRAL_12 + "rel a b\n"
    marked = group_from_presentation(parse_presentation(text))
    assert marked.group.order == 2


def test_evaluate_word():
    marked = group_from_presentation(parse_presentation(DIHEDRAL_12))
    g = marked.group
    a, b = marked.marked
    ab = g.mul[a][b]
    assert evaluate_word(g, marked.marked, (0, 1)) == ab
    assert evaluate_word(g, marked.marked, (0, 0)) == g.identity
    assert evaluate_word(g, marked.marked, ()) == g.identity
    # relators evaluate to the identity
    assert evaluate_word(g, marked.marked, (0, 1) * 6) == g.identity


def test_index_of_even_subgroup_two():
    # two reflections of a dihedral group: rotations form the index-2 subgroup
    assert index_of_even_subgroup(dihedral(12)) == 2
    tetra = _reflection_presentation(("a", "b", 3), ("b", "c", 3), ("a", "c", 2))
    marked = group_from_presentation(parse_presentation(tetra))
    assert index_of_even_subgroup(marked) == 2


def test_index_of_even_subgroup_one():
    # in the Klein four group marked with its three involutions, pairwise
    # products already cover the whole group: no index-2 "even" subgroup
    v4 = group_from_presentation(
        parse_presentation(
            "gens a b\nrel a^2\nrel b^2\nrel (a b)^2\n"
        )
    ).group
    assert v4.order == 4
    invs = [g for g in range(4) if v4.element_orders[g] == 2]
    marked = MarkedGroup(v4, tuple(invs))
    assert index_of_even_subgroup(marked) == 1


def test_index_of_even_subgroup_rejects_non_involutions():
    d12 = dihedral(12)
    rot_marked = MarkedGroup(d12.group, (1, 6))
    with pytest.raises(ValueError):
        index_of_even_subgroup(rot_marked)


def test_coset_table_marks_generate():
    marked = group_from_presentation(parse_presentation(DIHEDRAL_12))
    assert len(subgroup_closure(marked.group, marked.marked)) == 12


def test_against_sympy_coset_enumeration():
    pytest.importorskip("sympy")
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    cases = [
        ("gens a b\nrel a^2\nrel b^2\nrel (a b)^6\n", 12),
        (_reflection_presentation(("a", "b", 3), ("b", "c", 3), ("a", "c", 2)), 24),
        (_reflection_presentation(("a", "b", 4), ("b", "c", 3), ("a", "c", 2)), 48),
    ]
    for text, expected in cases:
        pres = parse_presentation(text)
        assert coset_enumerate(pres).num_cosets == expected

        free = free_group(", ".join(pres.generator_names))
        F, gens = free[0], free[1:]
        rels = []
        for word in pres.relators:
            expr = F.identity
            for idx in word:
                expr = expr * gens[idx]
            rels.append(expr)
        assert FpGroup(F, rels).order() == expected


def test_regular_action_is_the_coset_table():
    pres = parse_presentation(DIHEDRAL_12)
    table = coset_enumerate(pres).table
    perms = regular_action(pres)
    assert perms == tuple(tuple(row[g] for row in table) for g in range(2))
    group = group_from_action(perms, "D12")
    assert group.mul == group_from_presentation(pres).group.mul
    assert group.identity == 0


_BROKEN_TABLE = """
from ebrmaps.presentations import CosetTable, _check_table, parse_presentation

assert False, "assert statements must be stripped"
pres = parse_presentation("gens a b\\nrel a^2\\nrel b^2\\nrel (a b)^3\\n")
_check_table(CosetTable(((1, 0), (0, 1))), pres, ())
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
