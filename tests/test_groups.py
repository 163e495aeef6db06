"""Tests for the concrete finite-group layer: constructors, encodings,
standardized-table comparison and isomorphism testing."""

import gc
import itertools
import math
import random
import weakref

import pytest

from ebrmaps.groups import (
    FiniteGroup,
    MarkedGroup,
    _generated_action,
    _same_standard_table,
    alternating,
    are_isomorphic,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    greedy_generators,
    multiplicative_units,
    quotient,
    semidirect,
    subgroup_closure,
    symmetric,
)
from ebrmaps import census, families
from references import (
    check_action_exhaustive,
    element_orders,
    fingerprint,
    is_abelian,
    rejection,
    relabelled,
    standard_table,
)
from table_checks import validate_group_table


def test_cyclic_basics():
    for n in (1, 2, 3, 8, 12):
        g = cyclic(n)
        assert g.order == n
        assert g.is_abelian()
        if n > 1:
            assert g.element_orders[1] == n
        validate_group_table(g)
    with pytest.raises(ValueError):
        cyclic(0)


def test_cyclic_element_orders():
    g = cyclic(12)
    # ord(k) = 12 / gcd(k, 12)
    assert list(g.element_orders) == [1, 12, 6, 4, 3, 12, 2, 12, 3, 4, 6, 12]
    assert g.involutions() == [6]


def test_dihedral_is_of_order_n():
    # The constructor takes the ORDER of the group, not the polygon size.
    for n in (4, 6, 8, 20):
        marked = dihedral(n)
        g = marked.group
        assert g.order == n
        validate_group_table(g)
        m = n // 2
        # rotations occupy 0..m-1, reflections m..n-1
        assert all(g.element_orders[i] == m // math.gcd(i, m) for i in range(m))
        assert all(g.element_orders[i] == 2 for i in range(m, n))
        # the two marks are reflections whose product has order m
        a, b = marked.marked
        assert g.element_orders[a] == 2 and g.element_orders[b] == 2
        assert g.element_orders[g.mul[a][b]] == m
    with pytest.raises(ValueError):
        dihedral(7)
    with pytest.raises(ValueError):
        dihedral(0)


def test_dihedral_degenerate_order_two():
    marked = dihedral(2)
    assert marked.group.order == 2
    assert marked.marked == (1, 1)


def test_dicyclic():
    q8 = dicyclic(2)
    assert q8.order == 8
    assert not q8.is_abelian()
    # Q8 has a unique involution
    assert len(q8.involutions()) == 1
    q16 = dicyclic(4)
    assert q16.order == 16
    assert len(q16.involutions()) == 1
    validate_group_table(q8)
    validate_group_table(q16)
    with pytest.raises(ValueError, match="n must be positive"):
        dicyclic(0)


def test_symmetric_and_alternating():
    s4 = symmetric(4)
    assert s4.order == 24
    assert len(s4.perms) == 24
    assert sorted(s4.element_orders) == sorted([1] + [2] * 9 + [3] * 8 + [4] * 6)
    a5 = alternating(5)
    assert a5.order == 60
    assert not a5.is_abelian()
    validate_group_table(s4)
    with pytest.raises(ValueError, match=r"symmetric\(n\) supports 1 <= n <= 5"):
        symmetric(6)
    with pytest.raises(ValueError, match=r"alternating\(n\) supports 1 <= n <= 5"):
        alternating(6)


def test_direct_product():
    g = direct_product(cyclic(4), cyclic(2))
    assert g.order == 8
    assert g.is_abelian()
    assert sorted(g.element_orders) == [1, 2, 2, 2, 4, 4, 4, 4]
    # the encoding is (x, y) -> x * |B| + y
    a, b = direct_product(cyclic(3), cyclic(5)), cyclic(15)
    assert are_isomorphic(a, b)


def test_semidirect_builds_dihedral():
    c6 = cyclic(6)
    inversion = tuple(c6.inv)
    identity = tuple(range(6))
    g = semidirect(c6, cyclic(2), (identity, inversion), name="C6:C2")
    assert g.order == 12
    assert are_isomorphic(g, dihedral(12).group)


def test_semidirect_rejects_non_action():
    c4 = cyclic(4)
    bad = (tuple(range(4)), (0, 2, 1, 3))  # not an automorphism of C4
    with pytest.raises(ValueError):
        semidirect(c4, cyclic(2), bad)
    wrong_length = "action must assign a permutation of A to every element of B"
    for action in ((tuple(range(4)),), (tuple(range(3)), (0, 2, 1))):
        with pytest.raises(ValueError, match=wrong_length):
            semidirect(c4, cyclic(2), action)
    with pytest.raises(ValueError, match=r"action\[1\] is not a permutation of A"):
        semidirect(c4, cyclic(2), (tuple(range(4)), (0, 0, 2, 3)))


def test_action_check_agrees_with_the_exhaustive_reference():
    # semidirect checks through generators of A in O(|A|); the reference
    # checks every pair of elements.  Same verdict, same message.
    c2, v4 = cyclic(2), direct_product(cyclic(2), cyclic(2))
    accepted = {}
    for a in (cyclic(4), v4, cyclic(6), symmetric(3)):
        identity = tuple(range(a.order))
        accepted[a.name] = 0
        for perm in itertools.permutations(range(a.order)):
            action = (identity, perm)
            got = rejection(semidirect, a, c2, action)
            assert got == rejection(check_action_exhaustive, a, c2, action), (a.name, perm)
            accepted[a.name] += got is None
    # the automorphisms of order at most 2
    assert accepted == {"C4": 2, "C2xC2": 4, "C6": 2, "S3": 4}
    # V_4 on V_4: every assignment of permutations to the three
    # non-identity elements; the 10 homomorphisms V_4 -> Aut(V_4) = S_3 pass
    count = 0
    for images in itertools.product(itertools.permutations(range(4)), repeat=3):
        action = ((0, 1, 2, 3), *images)
        got = rejection(semidirect, v4, v4, action)
        assert got == rejection(check_action_exhaustive, v4, v4, action), images
        count += got is None
    assert count == 10


def test_action_check_with_a_non_abelian_b():
    # every map from the 6 elements of D_6 (non-abelian) to {identity,
    # inversion} on C_5: the trivial map and the sign are the only
    # homomorphisms, checked on B's generators against every pair
    c5, d6 = cyclic(5), dihedral(6).group
    choices = (tuple(range(5)), c5.inv)
    accepted = []
    for signs in itertools.product((0, 1), repeat=6):
        action = tuple(choices[sign] for sign in signs)
        got = rejection(semidirect, c5, d6, action)
        assert got == rejection(check_action_exhaustive, c5, d6, action), signs
        if got is None:
            accepted.append(signs)
    assert accepted == [(0,) * 6, (0, 0, 0, 1, 1, 1)]
    # a trivial B has no generators: only the identity's image is checked
    for action in ((choices[0],), (choices[1],)):
        got = rejection(semidirect, c5, cyclic(1), action)
        assert got == rejection(check_action_exhaustive, c5, cyclic(1), action)
    assert got == "action is not a homomorphism B -> Aut(A)"


def test_quotient_of_dihedral_by_center():
    d8 = dihedral(8).group
    center = {0, 2}  # identity and the half-turn rotation
    q = quotient(d8, center)
    assert q.order == 4
    assert q.is_abelian()
    assert sorted(q.element_orders) == [1, 2, 2, 2]  # Klein four group


def test_quotient_rejects_non_normal_subset():
    d8 = dihedral(8).group
    with pytest.raises(ValueError):
        quotient(d8, {0, 4})  # a reflection generates a non-normal C2
    with pytest.raises(ValueError, match="normal subgroup must contain the identity"):
        quotient(d8, {2})
    with pytest.raises(ValueError, match="subset is not a subgroup"):
        quotient(d8, {0, 1})  # the rotation 1 has order 4


def test_multiplicative_units():
    u8 = multiplicative_units(8)
    assert u8.order == 4
    assert sorted(u8.units) == [1, 3, 5, 7]
    assert sorted(u8.element_orders) == [1, 2, 2, 2]
    u5 = multiplicative_units(5)
    assert u5.order == 4
    assert 4 in u5.element_orders  # 2 and 3 generate
    u1 = multiplicative_units(1)
    assert (u1.mul, u1.units, u1.name) == (((0,),), (0,), "U(1)")
    assert multiplicative_units(2).units == (1,)
    for n in (0, -5):
        with pytest.raises(ValueError, match="n must be positive"):
            multiplicative_units(n)


def test_subgroup_closure():
    d8 = dihedral(8).group
    assert subgroup_closure(d8, (0,)) == (0,)
    refl = 4
    assert set(subgroup_closure(d8, (refl,))) == {0, refl}
    assert len(subgroup_closure(d8, dihedral(8).marked)) == 8
    assert set(subgroup_closure(d8, (1,))) == {0, 1, 2, 3}


def test_generated_action_composes_b_from_generator_images():
    identity, inversion = tuple(range(5)), (0, 4, 3, 2, 1)
    # B = C4 given by a regular action's permutation v -> v + 1 of its generator
    assert _generated_action([(1, 2, 3, 0)], [inversion]) == (identity, inversion) * 2
    # B = D8 given by its table's columns for the two reflection marks (the
    # reflections are elements 4..7), each inverting C5
    d8 = dihedral(8)
    columns = [[row[g] for row in d8.group.mul] for g in d8.marked]
    action = _generated_action(columns, [inversion, inversion])
    assert action == (identity,) * 4 + (inversion,) * 4
    # v -> v + 2 generates only a subgroup of order 2 of C4, in either form
    c4 = cyclic(4)
    message = r"^the given generators do not generate B$"
    with pytest.raises(ValueError, match=message):
        _generated_action([(2, 3, 0, 1)], [inversion])
    with pytest.raises(ValueError, match=message):
        _generated_action([[row[2] for row in c4.mul]], [inversion])
    with pytest.raises(ValueError, match=message):
        census._extension(cyclic(5), c4, {2: inversion}, "x")


def test_extends_to_isomorphism():
    d8 = dihedral(8)
    g = d8.group

    def columns(group, elements):
        return [[row[z] for row in group.mul] for z in elements]

    marks = columns(g, d8.marked)
    # reflection marks can be rotated by an (inner) automorphism
    assert _same_standard_table(marks, columns(g, (6, 7)))
    # marks of mismatched orders cannot correspond
    assert not _same_standard_table(marks, columns(g, (4, 1)))
    # across two numberings of D8, the renumbered marks correspond and two
    # commuting reflections (generating only a Klein four group) do not
    other, perm = relabelled(g, random.Random(0))
    same = columns(other, [perm[z] for z in d8.marked])
    assert _same_standard_table(marks, same)
    klein = columns(other, [perm[4], perm[6]])
    assert not _same_standard_table(marks, klein)
    # actions on different numbers of points are never equal
    assert not _same_standard_table(marks, [(1, 0), (1, 0)])
    # the lazy comparison agrees with whole tables built by the reference,
    # for random tuples of the atlas groups of order <= 24 against their
    # images in a relabelled copy, random tuples of that copy, and random
    # tuples of the next group (of the same order or the next)
    rng = random.Random(21)
    groups = [h for n in census.ATLAS_ORDERS if n <= 24 for h in census.atlas(n)]
    seen = set()
    for h, after in zip(groups, groups[1:] + groups[:1]):
        other, perm = relabelled(h, rng)
        for _ in range(6):
            size = rng.randint(1, 3)
            gens = rng.choices(range(h.order), k=size)
            a = columns(h, gens)
            for group, images in (
                (other, [perm[z] for z in gens]),
                (other, rng.choices(range(other.order), k=size)),
                (after, rng.choices(range(after.order), k=size)),
            ):
                b = columns(group, images)
                equal_sizes = len(a[0]) == len(b[0])
                same = equal_sizes and standard_table(a) == standard_table(b)
                assert _same_standard_table(a, b) == same
                seen.add((same, equal_sizes, len(subgroup_closure(h, gens)) == h.order))
    # equal and unequal tables, on equal and different numbers of points,
    # of tuples that generate and tuples that do not
    assert {(True, True, True), (True, True, False), (False, True, True)} <= seen
    assert {(False, True, False), (False, False, True), (False, False, False)} <= seen


def test_are_isomorphic_positive():
    assert are_isomorphic(dicyclic(2), dicyclic(2))
    assert are_isomorphic(
        direct_product(cyclic(2), cyclic(4)), direct_product(cyclic(4), cyclic(2))
    )
    assert are_isomorphic(symmetric(3), dihedral(6).group)


def test_are_isomorphic_negative():
    assert not are_isomorphic(dihedral(8).group, dicyclic(2))  # D8 vs Q8
    assert not are_isomorphic(cyclic(8), direct_product(cyclic(4), cyclic(2)))
    assert not are_isomorphic(dihedral(24).group, dicyclic(6))
    assert not are_isomorphic(cyclic(4), cyclic(5))


def test_are_isomorphic_keeps_no_group_alive():
    # the invariants are cached on the group, so comparing groups must not
    # keep them reachable after the caller drops them
    g = direct_product(cyclic(4), cyclic(3))
    ref = weakref.ref(g)
    assert are_isomorphic(g, cyclic(12))
    del g
    gc.collect()
    assert ref() is None


def test_fingerprint_is_computed_once():
    g = symmetric(4)
    assert g.fingerprint is g.fingerprint
    assert g.fingerprint == (24, tuple(sorted(g.element_orders)), False, 1, (1, 3, 6, 6, 8))


def test_greedy_generators():
    for g in (cyclic(12), dihedral(16).group, symmetric(4)):
        gens = greedy_generators(g)
        assert len(subgroup_closure(g, gens)) == g.order


def test_marked_group_requires_generation():
    d8 = dihedral(8).group
    with pytest.raises(ValueError):
        MarkedGroup(d8, (1,))  # the rotation alone generates C4 only
    with pytest.raises(ValueError):
        MarkedGroup(d8, (4, 9))  # out of range


def test_finite_group_rejects_bad_tables():
    with pytest.raises(ValueError):
        FiniteGroup(((0, 1), (1, 1)))  # element 1 has no inverse
    with pytest.raises(ValueError):
        FiniteGroup(((1, 0), (0, 0)))  # no two-sided identity... or broken
    with pytest.raises(ValueError):
        FiniteGroup(())


def test_derived_data_agrees_with_the_dense_references(monkeypatch):
    # groups from outside the atlas, whose bytes another test pins
    probed = []

    def recording_semidirect(*args, **kwargs):
        probed.append(semidirect(*args, **kwargs))
        return probed[-1]

    monkeypatch.setattr(families, "semidirect", recording_semidirect)
    families.cyclic_by_dihedral_probe(5, 3)
    assert [g.name for g in probed] == ["C5:D6", "C5:D6"]
    groups = [
        symmetric(5),
        alternating(5),
        multiplicative_units(15),
        quotient(dihedral(24).group, {0, 6}),
        *probed,
        families.dihedral_family_1(5).group,
    ]
    for g in groups:
        assert g.element_orders == element_orders(g), g.name
        assert g.is_abelian() == is_abelian(g), g.name
        assert g.fingerprint == fingerprint(g), g.name


@pytest.mark.parametrize(
    "table, message",
    [
        (((0, 1), (1,)), "multiplication table must be square and nonempty"),
        (((1, 0), (0, 0)), "element 0 of the table is not the identity"),
        # rows 0 and 1 both read like the identity's, but no column does
        (((0, 1), (0, 1)), "element 0 of the table is not the identity"),
        # a group whose identity is element 1, not element 0
        (((1, 0), (0, 1)), "element 0 of the table is not the identity"),
        (((0, 1), (1, 1)), "element 1 has no inverse"),
        # 1 * 1 = 2 and 2 * 1 = 2: the powers of 1 never reach 0
        (((0, 1, 2), (1, 2, 0), (2, 2, 0)), "element 1 has no finite order <= 3"),
    ],
    ids=[
        "not-square",
        "no-identity-row",
        "no-identity-column",
        "identity-is-element-1",
        "no-inverse",
        "no-finite-order",
    ],
)
def test_finite_group_error_messages(table, message):
    with pytest.raises(ValueError) as info:
        FiniteGroup(table)
    assert str(info.value) == message
