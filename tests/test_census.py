"""Tests for the census layer: admissible (order, type) sieve, the atlas of
groups of supported orders, exhaustive per-group search, classification and
the verification reports."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import ebrmaps
from ebrmaps.census import (
    ATLAS_EXPECTED_COUNTS,
    ATLAS_ORDERS,
    UnsupportedOrder,
    admissible_types,
    atlas,
    catalog_json,
    catalog_rows,
    classify,
    enumerate_maps,
    verify_chi_minus_1_dihedral,
    verify_p_divides_exclusions,
)
from ebrmaps.families import (
    CHI2_FULLY_REGULAR_INDICES,
    CHI2_ORIENTABLE_INDICES,
    h3,
    is_prime,
)
from ebrmaps import families
from ebrmaps.groups import (
    VerificationError,
    are_isomorphic,
    cyclic,
    dihedral,
    direct_product,
    semidirect,
    symmetric,
)
from ebrmaps.maps import (
    equivalence_key,
    euler_characteristic,
    euler_characteristic_formula,
    type_of,
)
from references import (
    all_map_quadruples_by_scan,
    are_isomorphic_by_extension,
    enumerate_maps_by_key,
    is_abelian,
    marks,
    quotient,
    relabelled,
)


def test_admissible_types_p2():
    assert admissible_types(2) == [
        (8, 8, 8),
        (12, 4, 12),
        (12, 6, 6),
        (16, 4, 8),
        (24, 4, 6),
    ]


def test_admissible_types_p3():
    assert admissible_types(3) == [
        (12, 6, 12),
        (16, 4, 16),
        (20, 4, 10),
        (24, 4, 8),
        (36, 4, 6),
    ]


def test_admissible_types_structure():
    for p in (2, 3, 5, 7, 11):
        for n, k, l in admissible_types(p):
            assert k % 2 == 0 and l % 2 == 0
            assert 4 <= k <= l and l >= 6
            assert n % k == 0 and n % l == 0 and n % 4 == 0
            assert euler_characteristic_formula(n, k, l) == -p
            nu = Fraction(2 * k * l, k * l - 2 * (k + l))
            assert nu * p == n  # exact rational identity
            assert nu <= 12
    with pytest.raises(ValueError):
        admissible_types(6)


def _admissible_types_by_scan(p):
    """Reference: scan n = 4, 8, ..., 12p and every pair of even divisors."""
    out = []
    for n in range(4, 12 * p + 1, 4):
        small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        divisors = sorted({e for d in small for e in (d, n // d) if e >= 4 and e % 2 == 0})
        for i, k in enumerate(divisors):
            for l in divisors[i:]:
                if l >= 6 and euler_characteristic_formula(n, k, l) == -p:
                    out.append((n, k, l))
    return out


def test_admissible_types_match_the_scan():
    primes = [p for p in range(2, 300) if is_prime(p)] + [1009, 2003, 10007]
    for p in primes:
        assert admissible_types(p) == _admissible_types_by_scan(p), p


def test_admissible_orders_larger_primes():
    assert sorted({n for n, _, _ in admissible_types(5)}) == [16, 24, 28, 40, 60]
    assert sorted({n for n, _, _ in admissible_types(7)}) == [20, 24, 32, 36, 56, 84]
    assert sorted({n for n, _, _ in admissible_types(11)}) == [
        28, 32, 36, 40, 48, 52, 88, 132,
    ]


def test_atlas_counts():
    assert ATLAS_ORDERS == tuple(sorted(ATLAS_EXPECTED_COUNTS))
    for order in ATLAS_ORDERS:
        groups = atlas(order)
        assert len(groups) == ATLAS_EXPECTED_COUNTS[order]
        assert all(g.order == order for g in groups)


def test_atlas_members_pairwise_distinct():
    # atlas() self-checks this on construction; verify independently for a
    # couple of orders
    for order in (16, 36):
        groups = atlas(order)
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                assert not are_isomorphic(groups[i], groups[j])


def test_atlas_against_the_dense_reference():
    # each small group matches a random renumbering of its own table, both
    # by the standardized tables and by extending a map of generators
    rng = random.Random(24)
    for order in ATLAS_ORDERS:
        if order > 24:
            break
        for g in atlas(order):
            other, _ = relabelled(g, rng)
            assert are_isomorphic(g, other), g.name
            assert are_isomorphic_by_extension(g, other), g.name
    # 7 pairs tie on element orders; only these 2 also tie on class sizes,
    # so only they reach the table comparison with a fingerprint match
    tied = [
        (a, b)
        for order in ATLAS_ORDERS
        for a, b in combinations(atlas(order), 2)
        if sorted(a.element_orders) == sorted(b.element_orders)
    ]
    assert len(tied) == 7
    tied = [(a, b) for a, b in tied if a.fingerprint == b.fingerprint]
    assert [(a.name, b.name) for a, b in tied] == [("Q8xC2", "C4:C4"), ("V4:C4", "D8oC4")]
    for a, b in tied:
        assert not are_isomorphic(a, b)
        assert not are_isomorphic_by_extension(a, b)
        assert not are_isomorphic_by_extension(b, a)


def test_atlas_contains_expected_groups():
    assert any(are_isomorphic(g, symmetric(4)) for g in atlas(24))
    assert any(are_isomorphic(g, dihedral(8)) for g in atlas(8))
    assert any(
        are_isomorphic(g, direct_product(cyclic(2), cyclic(2))) for g in atlas(4)
    )
    # order 8: exactly two nonabelian groups (dihedral and quaternion)
    assert sum(not is_abelian(g) for g in atlas(8)) == 2
    # order 16: five abelian groups
    assert sum(is_abelian(g) for g in atlas(16)) == 5


def test_atlas_unsupported_order():
    for bad in (7, 28, 32, 100):
        with pytest.raises(UnsupportedOrder):
            atlas(bad)
    assert issubclass(UnsupportedOrder, ValueError)


def test_extension_composes_the_action_from_generator_images():
    # C3's generator inverting C3 is no action: its cube would invert too
    inversion = (0, 2, 1)
    with pytest.raises(ValueError, match=r"^action is not a homomorphism B -> Aut\(A\)$"):
        semidirect(cyclic(3), cyclic(3), {1: inversion}, "bad")
    # swapping a generator of C4 with its involution is no automorphism
    with pytest.raises(ValueError, match=r"^the image of 1 is not an automorphism of A$"):
        semidirect(cyclic(4), cyclic(2), {1: (0, 2, 1, 3)}, "bad")
    # C5 x| D8, the rotation (element 1) inverting and the reflection
    # (element 4) centralizing; (0, d)(c, 0) = (c^d, d) is element c^d*8 + d
    g = semidirect(cyclic(5), dihedral(8), {1: (0, 4, 3, 2, 1), 4: tuple(range(5))}, "C5:D8")
    for d in range(8):
        act = tuple(g.mul[d][c * 8] // 8 for c in range(5))
        assert act == ((0, 4, 3, 2, 1) if d % 2 else (0, 1, 2, 3, 4)), d


def test_enumerate_maps_small_groups():
    # groups with fewer than four involutions cannot carry a quadruple
    assert enumerate_maps(cyclic(8)) == {}
    assert enumerate_maps(direct_product(cyclic(2), cyclic(2))) == {}
    # D8 carries exactly one class with chi = -2
    found = list(enumerate_maps(dihedral(8), want_chi=-2).values())
    assert len(found) == 1
    k, l = type_of(found[0])
    assert tuple(sorted((k, l))) == (8, 8)


def test_enumerate_maps_order16():
    total = []
    for g in atlas(16):
        total += enumerate_maps(g, want_chi=-2).values()
    assert len(total) == 6
    assert all(tuple(sorted(type_of(m))) == (4, 8) for m in total)


def test_enumerate_maps_dedups_within_group():
    for g in atlas(12):
        found = list(enumerate_maps(g, want_chi=-2).values())
        for i in range(len(found)):
            for j in range(i + 1, len(found)):
                assert equivalence_key(found[i]) != equivalence_key(found[j])


def test_enumerate_maps_dedup_is_complete():
    # re-scan: every raw quadruple with chi = -2 is equivalent to a
    # retained representative
    d8 = dihedral(8)
    kept = {equivalence_key(r) for r in enumerate_maps(d8, want_chi=-2).values()}
    for m in all_map_quadruples_by_scan(d8, want_chi=-2):
        assert equivalence_key(m) in kept


def _searched_groups():
    """(group, want_chi) for every atlas group that classify --p 2,
    classify --p 3 and verify lemma-4-2 search, every atlas group of order
    at most 24 without a chi filter, and every atlas group of order 40 to
    132 at chi = -5, -7 and -11."""
    for p in (2, 3):
        for n in sorted({n for n, _, _ in admissible_types(p)}):
            yield from ((g, -p) for g in atlas(n))
    for n in (8, 12):
        yield from ((g, -1) for g in atlas(n))
    for n in ATLAS_ORDERS:
        if n <= 24:
            yield from ((g, None) for g in atlas(n))
        elif n >= 40:
            yield from ((g, chi) for g in atlas(n) for chi in (-5, -7, -11))


def test_orbit_dedup_keeps_the_one_key_per_quadruple_representatives():
    for group, chi in _searched_groups():
        got = [marks(m) for m in enumerate_maps(group, want_chi=chi).values()]
        assert got == [marks(m) for m in enumerate_maps_by_key(group, chi)], (
            group.name,
            chi,
        )


def _may_be_least(group, quad):
    """The three tests that every class's least quadruple passes, from
    their definitions: x is least in its conjugacy class, no conjugate of
    y, s or t is below x, and no conjugate of y by an element commuting
    with x is below y."""
    n, mul, inv = group.order, group.mul, group.inv

    def conjugates(a, by):
        return [mul[mul[g][a]][inv[g]] for g in by]

    x, y, s, t = quad
    centralizer = [g for g in range(n) if mul[g][x] == mul[x][g]]
    return (
        min(conjugates(x, range(n))) == x
        and all(min(conjugates(a, range(n))) >= x for a in (y, s, t))
        and min(conjugates(y, centralizer)) == y
    )


@pytest.mark.parametrize("order", ATLAS_ORDERS)
def test_least_search_yields_the_full_scan_quadruples_that_pass_the_tests(order):
    # the only check that the search drops no class: it yields, in order,
    # the quadruples of the scan that can be least in their class
    from ebrmaps.maps import all_map_quadruples

    for group, chi in _searched_groups():
        if group.order != order:
            continue
        got = [marks(m) for m in all_map_quadruples(group, chi)]
        full = [marks(m) for m in all_map_quadruples_by_scan(group, chi)]
        assert got == [q for q in full if _may_be_least(group, q)], (group.name, chi)


def test_exclusions_at_p11_generate_few_subgroups(monkeypatch):
    from ebrmaps import maps as maps_module

    calls = []
    closure = maps_module.subgroup_closure
    monkeypatch.setattr(
        maps_module, "subgroup_closure", lambda g, gens: calls.append(gens) or closure(g, gens)
    )
    assert verify_p_divides_exclusions(11)["passed"] is True
    # the search over every quadruple makes 1,840 generation checks here
    assert len(calls) < 100


def test_classify_computes_each_key_once(monkeypatch):
    # enumerate_maps and _constructive_entries return their keys, and
    # classify matches on them: 260 search keys and 12 constructor keys at
    # p = 2, 20 and 5 at p = 3
    from ebrmaps import census

    calls = []
    key = census.equivalence_key
    monkeypatch.setattr(census, "equivalence_key", lambda m: calls.append(m) or key(m))
    for p, expected in ((2, 272), (3, 25)):
        calls.clear()
        classify(p)
        assert len(calls) == expected, p
    for group in atlas(12):
        for k, m in enumerate_maps(group, want_chi=-2).items():
            assert k == key(m)


def test_exceptional_map_is_unique_at_order36():
    # among all fourteen groups of order 36 there is exactly one map class
    # with chi = -3, and it is the exceptional type-(4,6) map
    classes = {
        equivalence_key(m) for g in atlas(36) for m in enumerate_maps(g, want_chi=-3).values()
    }
    assert classes == {equivalence_key(h3().build())}


def test_atlas_tables_and_derived_data_are_pinned():
    # digests of the atlas as built entry by entry at commit 21841ad
    groups = [g for n in ATLAS_ORDERS for g in atlas(n)]
    assert len(groups) == 137
    # D8 o C4 was then the quotient of D8 x C4 by {(e, 0), (r^2, 2)}; it is
    # now built as (C4 x C2) x| C2, an isomorphic group with its own table
    i = [g.name for g in groups].index("D8oC4")
    glued = quotient(direct_product(dihedral(8), cyclic(4)), {0, 2 * 4 + 2}, "D8oC4")
    assert are_isomorphic(groups[i], glued)
    assert hashlib.sha256(repr(groups[i].mul).encode()).hexdigest() == (
        "af6199318621c63453e0cde5803d671f2eba4e4ceffee3af312034f0dfc17cb6"
    )
    groups[i] = glued
    tables = repr([(g.name, g.mul) for g in groups]).encode()
    derived = repr(
        [(g.name, 0, g.inv, g.element_orders, g.fingerprint) for g in groups]
    ).encode()
    assert hashlib.sha256(tables).hexdigest() == (
        "3ce48d2be272544fe977dad0f20892b7c4ebfdd34d1ed0d212f6bdad65c0a003"
    )
    assert hashlib.sha256(derived).hexdigest() == (
        "2866a32d32fd600f273f9592eed9eed5f5f75d859d39f8d88a4c9135d3850d09"
    )


def test_constructor_with_the_wrong_chi_raises_verification_error(monkeypatch):
    dh1 = families.dh1
    monkeypatch.setattr(families, "dh1", lambda p: dh1(5))
    with pytest.raises(VerificationError, match=r"constructors \['dh1'\] do not give chi = -3"):
        classify(3, profile="constructive")


_DROP_ONE_CONSTRUCTOR = """
import ebrmaps.census as census

assert False, "assert statements must be stripped"
full = census._constructive_entries
census._constructive_entries = lambda p: dict(list(full(p).items())[:-1])
census.classify(3)
"""


def test_classify_mismatch_raises_under_python_O():
    # the completeness check is explicit code, not an assert statement, so
    # python -O still reports a search class the constructors do not give
    env = dict(os.environ, PYTHONPATH=str(Path(ebrmaps.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _DROP_ONE_CONSTRUCTOR],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith(
        "ebrmaps.groups.VerificationError: exhaustive search and constructors disagree at p=3"
    )
    assert "found only by search [(36, 4, 6)]" in last


def test_classify_p2():
    entries = classify(2, profile="exhaustive")
    rows = catalog_rows(entries)
    assert [r["group_order"] for r in rows] == [8, 12, 12] + [16] * 6 + [24] * 3
    assert [tuple(r["type"]) for r in rows] == [
        (8, 8), (4, 12), (6, 6),
    ] + [(4, 8)] * 6 + [(4, 6)] * 3
    assert [r["family"] for r in rows] == [f"chi2({i})" for i in range(1, 13)]
    for i, r in enumerate(rows, start=1):
        assert r["chi"] == -2
        assert r["orientable"] == (i in CHI2_ORIENTABLE_INDICES)
        assert r["fully_regular"] == (i in CHI2_FULLY_REGULAR_INDICES)
        assert r["vertices"] - r["edges"] + r["faces"] == -2
        assert r["marks"] == ["x", "y", "s", "t"]


def test_classify_p3_exhaustive_matches_constructive():
    exhaustive = classify(3, profile="exhaustive")
    constructive = classify(3, profile="constructive")
    assert catalog_json(exhaustive) == catalog_json(constructive)
    rows = catalog_rows(exhaustive)
    assert [(r["group_order"], tuple(r["type"]), r["family"]) for r in rows] == [
        (16, (4, 16), "dh1"),
        (20, (4, 10), "dh2"),
        (36, (4, 6), "h3"),
    ]


def test_catalog_entry_pairs_a_map_with_its_member():
    # an exhaustive entry holds the search's representative of its class,
    # not the member's built map; a constructive entry holds the built map;
    # either way a row's family and presentation are its member's
    searched = {}
    for n in sorted({n for n, _, _ in admissible_types(3)}):
        for group in atlas(n):
            for key, m in enumerate_maps(group, want_chi=-3).items():
                searched.setdefault(key, m)
    exhaustive = classify(3, profile="exhaustive")
    constructive = classify(3, profile="constructive")
    assert len(exhaustive) == len(searched) == 3
    for m, member in exhaustive:
        built = member.build()
        assert m == searched[equivalence_key(built)] != built
    for m, member in constructive:
        assert m == member.build()
    for entries in (exhaustive, constructive):
        assert [(r["family"], r["presentation"]) for r in catalog_rows(entries)] == [
            (member.label, member.text) for _, member in entries
        ]


def test_classify_p5_constructive():
    rows = catalog_rows(classify(5, profile="constructive"))
    assert [(r["group_order"], tuple(r["type"]), r["family"]) for r in rows] == [
        (24, (4, 24), "dh1"),
        (24, (6, 8), "hp(1)"),
        (28, (4, 14), "dh2"),
    ]
    assert all(r["chi"] == -5 for r in rows)


def test_classify_exhaustive_unsupported_orders():
    with pytest.raises(UnsupportedOrder) as exc:
        classify(5, profile="exhaustive")
    assert "28" in str(exc.value)
    with pytest.raises(UnsupportedOrder) as exc:
        classify(7, profile="exhaustive")
    assert "32" in str(exc.value)


def test_classify_rejects_bad_arguments():
    with pytest.raises(ValueError):
        classify(4)
    with pytest.raises(ValueError):
        classify(3, profile="quick")


def test_catalog_json_shape():
    text = catalog_json(classify(2, profile="constructive"))
    rows = json.loads(text)
    assert len(rows) == 12
    expected_keys = [
        "group_order", "type", "vertices", "edges", "faces", "chi",
        "orientable", "fully_regular", "self_dual", "family",
        "presentation", "marks",
    ]
    for r in rows:
        assert list(r.keys()) == expected_keys
        assert r["type"][0] <= r["type"][1]
        assert isinstance(r["presentation"], str)
        assert "gens x y s t" in r["presentation"]
    assert text.endswith("\n")


def test_classify_deterministic():
    a = catalog_json(classify(2, profile="exhaustive"))
    b = catalog_json(classify(2, profile="exhaustive"))
    assert a == b


def test_verify_chi_minus_1():
    report = verify_chi_minus_1_dihedral()
    assert report["check"] == "chi-minus-1-dihedral"
    assert report["passed"] is True
    by_group = {(r["order"], r["group"]): r for r in report["groups"]}
    assert len(by_group) == ATLAS_EXPECTED_COUNTS[8] + ATLAS_EXPECTED_COUNTS[12]
    hits = [r for r in report["groups"] if r["maps_found"]]
    assert sorted(r["order"] for r in hits) == [8, 12]
    assert all(r["dihedral"] and r["ok"] for r in hits)
    assert all(r["maps_found"] == 1 for r in hits)


def test_verify_exclusions_p5():
    report = verify_p_divides_exclusions(5)
    assert report["check"] == "prime-divisor-exclusions"
    assert report["p"] == 5
    assert report["passed"] is True
    assert [(r["order"], r["status"], r["maps_found"]) for r in report["orders"]] == [
        (40, "pass", 0),
        (60, "pass", 0),
    ]


def test_verify_exclusions_rejects_other_primes():
    with pytest.raises(ValueError):
        verify_p_divides_exclusions(3)
    with pytest.raises(ValueError):
        verify_p_divides_exclusions(13)
