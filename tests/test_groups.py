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
    VerificationError,
    _same_standard_table,
    alternating,
    are_isomorphic,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    greedy_generators,
    semidirect,
    subgroup_closure,
    symmetric,
)
from ebrmaps import census, families, groups
from references import (
    check_action_exhaustive,
    composed_action,
    element_orders,
    group_from_action,
    is_abelian,
    rejection,
    relabelled,
    standard_table,
)
from table_checks import validate_group_table


def _involutions(g):
    return [a for a in range(g.order) if g.element_orders[a] == 2]


def test_cyclic_basics():
    for n in (1, 2, 3, 8, 12):
        g = cyclic(n)
        assert g.order == n
        assert is_abelian(g)
        if n > 1:
            assert g.element_orders[1] == n
        validate_group_table(g)
    with pytest.raises(ValueError):
        cyclic(0)


def test_cyclic_element_orders():
    g = cyclic(12)
    # ord(k) = 12 / gcd(k, 12)
    assert list(g.element_orders) == [1, 12, 6, 4, 3, 12, 2, 12, 3, 4, 6, 12]
    assert _involutions(g) == [6]


def test_dihedral_is_of_order_n():
    # The constructor takes the ORDER of the group, not the polygon size.
    for n in (4, 6, 8, 20):
        g = dihedral(n)
        assert g.order == n
        validate_group_table(g)
        m = n // 2
        # rotations occupy 0..m-1, reflections m..n-1
        assert all(g.element_orders[i] == m // math.gcd(i, m) for i in range(m))
        assert all(g.element_orders[i] == 2 for i in range(m, n))
        # the generating reflections m and m + 1 have a product of order m
        a, b = m, m + 1
        assert g.element_orders[a] == 2 and g.element_orders[b] == 2
        assert g.element_orders[g.mul[a][b]] == m
    with pytest.raises(ValueError):
        dihedral(7)
    with pytest.raises(ValueError):
        dihedral(0)


def test_dihedral_degenerate_order_two():
    g = dihedral(2)
    assert g.order == 2
    assert _involutions(g) == [1]  # the single reflection generates it


def test_dicyclic():
    q8 = dicyclic(2)
    assert q8.order == 8
    assert not is_abelian(q8)
    # Q8 has a unique involution
    assert len(_involutions(q8)) == 1
    q16 = dicyclic(4)
    assert q16.order == 16
    assert len(_involutions(q16)) == 1
    validate_group_table(q8)
    validate_group_table(q16)
    with pytest.raises(ValueError, match="n must be positive"):
        dicyclic(0)


def test_symmetric_and_alternating():
    s4 = symmetric(4)
    assert s4.order == 24
    # element i is the i-th permutation in sorted order, and i*j applies j first
    perms = sorted(itertools.permutations(range(4)))
    assert all(
        perms[s4.mul[i][j]] == tuple(p[k] for k in q)
        for i, p in enumerate(perms)
        for j, q in enumerate(perms)
    )
    assert sorted(s4.element_orders) == sorted([1] + [2] * 9 + [3] * 8 + [4] * 6)
    a5 = alternating(5)
    assert a5.order == 60
    assert not is_abelian(a5)
    validate_group_table(s4)
    with pytest.raises(ValueError, match=r"symmetric\(n\) supports 1 <= n <= 5"):
        symmetric(6)
    with pytest.raises(ValueError, match=r"alternating\(n\) supports 1 <= n <= 5"):
        alternating(6)


def test_direct_product():
    g = direct_product(cyclic(4), cyclic(2))
    assert g.order == 8
    assert is_abelian(g)
    assert sorted(g.element_orders) == [1, 2, 2, 2, 4, 4, 4, 4]
    # the encoding is (x, y) -> x * |B| + y
    a, b = direct_product(cyclic(3), cyclic(5)), cyclic(15)
    assert are_isomorphic(a, b)


def test_semidirect_builds_dihedral():
    c6 = cyclic(6)
    g = semidirect(c6, cyclic(2), {1: tuple(c6.inv)}, name="C6:C2")
    assert g.order == 12
    assert are_isomorphic(g, dihedral(12))


def test_semidirect_rejects_non_action():
    inversion = (0, 4, 3, 2, 1)  # of C5
    faults = [
        (cyclic(4), cyclic(2), {1: (0, 0, 2, 3)}, "the image of 1 is not a permutation of A"),
        (cyclic(4), cyclic(2), {1: (0, 2, 1)}, "the image of 1 is not a permutation of A"),
        # swapping a generator of C4 with its involution
        (cyclic(4), cyclic(2), {1: (0, 2, 1, 3)}, "the image of 1 is not an automorphism of A"),
        # v -> v + 2 generates only a subgroup of order 2 of C4
        (cyclic(5), cyclic(4), {2: inversion}, "the keys do not generate B"),
        # two commuting reflections of D8 generate a Klein four subgroup
        (cyclic(5), dihedral(8), {4: inversion, 6: inversion}, "the keys do not generate B"),
        # C3's generator inverting C3 is no action: its cube would invert too
        (cyclic(3), cyclic(3), {1: (0, 2, 1)}, "action is not a homomorphism B -> Aut(A)"),
        # the identity of B must act trivially
        (cyclic(5), cyclic(1), {0: inversion}, "action is not a homomorphism B -> Aut(A)"),
        (cyclic(5), cyclic(2), {2: inversion}, "2 is not an element of B"),
        (cyclic(5), cyclic(2), {-1: inversion}, "-1 is not an element of B"),
    ]
    for a, b, images, message in faults:
        assert rejection(semidirect, a, b, images) == message, (a.name, b.name, images)
    # a trivial B needs no generator
    assert semidirect(cyclic(5), cyclic(1), {}).order == 5


def _failed_check(message):
    """The check a rejection message names, the same for semidirect and the
    exhaustive reference; None when accepted."""
    return message and message.split(" is not ")[-1]


def _image_faults(*messages):
    """Whether every message names a fault of a single image."""
    return all(m and not m.endswith("B -> Aut(A)") for m in messages)


def test_action_check_agrees_with_the_exhaustive_reference():
    # semidirect checks each image on generators of A and composes the rest
    # of B; the reference checks every pair of elements of the composed
    # action.  Same verdict, on the same failed check.
    c2, v4 = cyclic(2), direct_product(cyclic(2), cyclic(2))
    accepted = {}
    for a in (cyclic(4), v4, cyclic(6), symmetric(3)):
        identity = tuple(range(a.order))
        accepted[a.name] = 0
        for perm in itertools.permutations(range(a.order)):
            got = rejection(semidirect, a, c2, {1: perm})
            want = rejection(check_action_exhaustive, a, c2, (identity, perm))
            assert _failed_check(got) == _failed_check(want), (a.name, perm)
            accepted[a.name] += got is None
    # the automorphisms of order at most 2
    assert accepted == {"C4": 2, "C2xC2": 4, "C6": 2, "S3": 4}
    # V_4 on V_4 from any two permutations for its generators 1 and 2: the
    # 10 homomorphisms V_4 -> Aut(V_4) = S_3 pass
    count = 0
    for p1, p2 in itertools.product(itertools.permutations(range(4)), repeat=2):
        got = rejection(semidirect, v4, v4, {1: p1, 2: p2})
        want = rejection(check_action_exhaustive, v4, v4, composed_action(v4, {1: p1, 2: p2}, 4))
        assert _failed_check(got) == _failed_check(want), (p1, p2)
        count += got is None
    assert count == 10
    # random images of random elements of B, mostly automorphisms of A (unit
    # multiples of a cyclic A, any permutation of V_4 fixing 0), some other
    # permutations and some non-permutations
    rng = random.Random(26)
    autos = {
        a: [tuple(x * u % a.order for x in range(a.order)) for u in range(1, a.order)
            if math.gcd(u, a.order) == 1]
        for a in (cyclic(5), cyclic(8), cyclic(7))
    }
    autos[v4] = [(0, *p) for p in itertools.permutations((1, 2, 3))]
    bs = (cyclic(4), cyclic(6), dihedral(8), dihedral(6), dicyclic(2), v4)
    outcomes = {}
    for _ in range(400):
        a, b = rng.choice(list(autos)), rng.choice(bs)
        images = {}
        for g in rng.sample(range(1, b.order), rng.randint(1, 3)):
            image = list(rng.choice(autos[a]))
            if rng.random() < 0.1:
                rng.shuffle(image)
            if rng.random() < 0.05:
                image[rng.randrange(a.order)] = image[0]
            images[g] = tuple(image)
        got = rejection(semidirect, a, b, images)
        if len(subgroup_closure(b, tuple(images))) < b.order:
            assert got is not None
            outcomes["keys"] = outcomes.get("keys", 0) + 1
            continue
        action = composed_action(b, images, a.order)
        want = rejection(check_action_exhaustive, a, b, action)
        # with several faulty images the two checks may name different ones
        assert _failed_check(got) == _failed_check(want) or _image_faults(got, want), images
        if got is None:
            g = semidirect(a, b, images)
            nb = b.order  # (0, y)(x, 0) is (action[y](x), y), element action[y](x)*|B| + y
            assert all(g.mul[y][x * nb] == action[y][x] * nb + y for y in range(nb) for x in range(a.order))
        outcomes[_failed_check(got)] = outcomes.get(_failed_check(got), 0) + 1
    assert set(outcomes) == {
        None, "keys", "a permutation of A", "an automorphism of A", "a homomorphism B -> Aut(A)"
    }, outcomes


def test_action_check_with_a_non_abelian_b():
    # D_6's generating reflections 3 and 4 each act on C_5 as the identity or
    # inversion: the trivial action and the sign are the only homomorphisms,
    # as the reference finds checking every pair of elements
    c5, d6 = cyclic(5), dihedral(6)
    choices = (tuple(range(5)), c5.inv)
    accepted = []
    for signs in itertools.product((0, 1), repeat=2):
        images = {3: choices[signs[0]], 4: choices[signs[1]]}
        got = rejection(semidirect, c5, d6, images)
        want = rejection(check_action_exhaustive, c5, d6, composed_action(d6, images, 5))
        assert _failed_check(got) == _failed_check(want), signs
        if got is None:
            accepted.append(signs)
    assert accepted == [(0, 0), (1, 1)]


def test_subgroup_closure():
    d8 = dihedral(8)
    assert subgroup_closure(d8, (0,)) == (0,)
    refl = 4
    assert set(subgroup_closure(d8, (refl,))) == {0, refl}
    assert len(subgroup_closure(d8, (4, 5))) == 8
    assert set(subgroup_closure(d8, (1,))) == {0, 1, 2, 3}


def test_extends_to_isomorphism():
    g = dihedral(8)
    reflections = (4, 5)

    def columns(group, elements):
        return [[row[z] for row in group.mul] for z in elements]

    marks = columns(g, reflections)
    # reflection marks can be rotated by an (inner) automorphism
    assert _same_standard_table(marks, columns(g, (6, 7)))
    # marks of mismatched orders cannot correspond
    assert not _same_standard_table(marks, columns(g, (4, 1)))
    # across two numberings of D8, the renumbered marks correspond and two
    # commuting reflections (generating only a Klein four group) do not
    other, perm = relabelled(g, random.Random(0))
    same = columns(other, [perm[z] for z in reflections])
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
    assert are_isomorphic(symmetric(3), dihedral(6))


def test_are_isomorphic_negative():
    assert not are_isomorphic(dihedral(8), dicyclic(2))  # D8 vs Q8
    assert not are_isomorphic(cyclic(8), direct_product(cyclic(4), cyclic(2)))
    assert not are_isomorphic(dihedral(24), dicyclic(6))
    assert not are_isomorphic(cyclic(4), cyclic(5))


def test_are_isomorphic_keeps_no_group_alive():
    # comparing groups must not keep them reachable after the caller
    # drops them
    g = direct_product(cyclic(4), cyclic(3))
    ref = weakref.ref(g)
    assert are_isomorphic(g, cyclic(12))
    del g
    gc.collect()
    assert ref() is None


def test_greedy_generators():
    for g in (cyclic(12), dihedral(16), symmetric(4)):
        gens = greedy_generators(g)
        assert len(subgroup_closure(g, gens)) == g.order


def test_greedy_generators_rejects_a_closure_without_its_generators(monkeypatch):
    # without its check the loop would add elements for ever; the patch
    # gives up after 10 calls so that such a loop fails this test, not hangs
    calls = []

    def faulty_closure(g, gens):
        calls.append(gens)
        if len(calls) > 10:
            raise RuntimeError("greedy_generators kept asking a faulty closure")
        return (0,)

    monkeypatch.setattr(groups, "subgroup_closure", faulty_closure)
    with pytest.raises(VerificationError, match=r"the closure of \[1\] lacks a generator"):
        greedy_generators(cyclic(12))
    assert calls == [(1,)]


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

    monkeypatch.setattr(census, "semidirect", recording_semidirect)
    census.cyclic_by_dihedral_probe(5, 3)
    assert [g.name for g in probed] == ["C5:D6", "C5:D6"]
    dh1 = families.dh1(5).build()
    groups = [
        symmetric(5),
        alternating(5),
        dicyclic(8),
        # the holomorph of C9: C9 x| C6, the generator multiplying by 2
        semidirect(cyclic(9), cyclic(6), {1: tuple(2 * c % 9 for c in range(9))}, "Hol(C9)"),
        *probed,
        group_from_action(dh1, "dh1"),
    ]
    for g in groups:
        assert g.element_orders == element_orders(g), g.name


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
