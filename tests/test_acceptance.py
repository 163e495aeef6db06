"""Acceptance gate: ten end-to-end criteria, one per test, each printing a
single ``ACCEPTANCE n: PASS/FAIL`` line (visible under ``pytest -s``).

Run with::

    pytest tests/test_acceptance.py -v -s
"""

import math
import time
import warnings
from fractions import Fraction

from ebrmaps import census, families
from ebrmaps.census import atlas, catalog_json, catalog_rows, classify, enumerate_maps
from ebrmaps.families import hpj, is_prime, members
from ebrmaps.groups import are_isomorphic, dihedral, symmetric
from ebrmaps.maps import (
    _flag_graph_bipartite,
    equivalence_key,
    euler_characteristic_formula,
    flag_structure,
    is_fully_regular,
    type_of,
)
from ebrmaps.presentations import parse_presentation, regular_action
from references import (
    cyclic_fitting_reference,
    group_from_action,
    group_from_presentation,
    index_of_even_subgroup,
    marks,
    orbit_count,
)


def _report(n: int, summary: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS — {summary}")


def _fail(n: int, summary: str) -> None:
    print(f"\nACCEPTANCE {n}: FAIL — {summary}")


class _Gate:
    """Context manager printing the PASS/FAIL line for one criterion."""

    def __init__(self, n: int, summary: str) -> None:
        self.n = n
        self.summary = summary
        self.start = 0.0
        self.elapsed = 0.0

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.monotonic() - self.start
        stamp = f"{self.summary} ({self.elapsed:.1f}s)"
        if exc_type is None:
            _report(self.n, stamp)
        else:
            _fail(self.n, f"{stamp}: {exc}")
        return False


def _hpj_parameter_range(max_order: int = 200) -> list[tuple[int, int, int]]:
    """Every valid (kappa, lam, j) with 4*kappa*lam <= max_order."""
    out = []
    for kappa in range(1, max_order // 12 + 1, 2):
        for lam in range(3, max_order // (4 * kappa) + 1, 2):
            if math.gcd(kappa, lam) != 1:
                continue
            for j in range(1, lam):
                if (j * j) % lam == 1:
                    out.append((kappa, lam, j))
    return out


# maps built once and shared by criteria 5, 6 and 7
_BUILT: dict = {}


def _hpj_maps() -> list:
    if "hpj" not in _BUILT:
        # each hpj member lifts the cosets of a cyclic subgroup to the
        # regular action of the presented group and checks every relator
        # on it, for every parameter set; a member whose p is not prime
        # builds, with a warning
        params = _hpj_parameter_range()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _BUILT["hpj"] = [hpj(*q).build() for q in params]
        minus_chi = [2 * kappa * lam - 2 * kappa - lam for kappa, lam, _ in params]
        expected = [f"-chi = {p} is not prime" for p in minus_chi if not is_prime(p)]
        assert [str(w.message).split(";")[0] for w in caught] == expected
    return _BUILT["hpj"]


def test_criterion_1_chi_minus_2_classification():
    with _Gate(1, "chi=-2 exhaustive classification: 12 maps, exact invariants") as g:
        entries = classify(2, profile="exhaustive")
        rows = catalog_rows(entries)
        assert [r["group_order"] for r in rows] == [8, 12, 12] + [16] * 6 + [24] * 3
        assert [tuple(r["type"]) for r in rows] == (
            [(8, 8), (4, 12), (6, 6)] + [(4, 8)] * 6 + [(4, 6)] * 3
        )
        # the family labels recover the catalog numbering 1..12
        numbers = [int(r["family"][5:-1]) for r in rows]
        assert numbers == list(range(1, 13))
        orientable = {i for i, r in zip(numbers, rows) if r["orientable"]}
        fully_regular = {i for i, r in zip(numbers, rows) if r["fully_regular"]}
        assert orientable == {1, 3, 4, 7, 11, 12}
        assert fully_regular == {1, 3, 7, 10, 12}
    assert g.elapsed < 60.0


def test_criterion_2_chi_minus_3_classification():
    with _Gate(2, "chi=-3 exhaustive equals constructive catalog") as g:
        exhaustive = classify(3, profile="exhaustive")
        constructive = classify(3, profile="constructive")
        assert catalog_json(exhaustive) == catalog_json(constructive)
        assert [member.label for _, member in exhaustive] == ["dh1", "dh2", "h3"]
        # every member's map lands in the catalog up to duality+twin,
        # including both cyclic-Fitting members (they fold into dh2)
        all_constructed = [member.build() for member in members(3)]
        assert len(all_constructed) == 5
        catalog_keys = {equivalence_key(m) for m, _ in exhaustive}
        for m in all_constructed:
            assert equivalence_key(m) in catalog_keys, (
                f"unmatched constructed map of type {type_of(m)}"
            )
    assert g.elapsed < 120.0


def test_criterion_3_order_formulas():
    with _Gate(3, "presentation orders match the closed-form order formulas") as g:
        for p in (3, 5, 7, 11, 13):
            text1 = families.dh1(p).text
            group, _ = group_from_presentation(parse_presentation(text1))
            assert group.order == 4 * (p + 1)
            text2 = families.dh2(p).text
            group, _ = group_from_presentation(parse_presentation(text2))
            assert group.order == 4 * (p + 2)
        params = _hpj_parameter_range(200)
        assert len(params) == 84
        for (kappa, lam, _), m in zip(params, _hpj_maps()):
            assert group_from_action(m, "hpj").order == 4 * kappa * lam
        for m_param in (1, 3, 5):
            group, _ = group_from_presentation(
                parse_presentation(families.hp(m_param).text)
            )
            assert group.order == 24 * m_param
    assert g.elapsed < 30.0


def test_criterion_4_quotient_certificate():
    with _Gate(4, "valency-8 family: index-24 coset action is S4") as g:
        # the group of hp(1) is the quotient of every hp(m) by <(s x)^3>
        perms = regular_action(parse_presentation(families.hp(1).text))
        assert are_isomorphic(group_from_action(perms, "hp(1)"), symmetric(4))


def test_criterion_5_route_cross_validation():
    with _Gate(
        5,
        "presented maps equal the dense semidirect constructions"
        " on all 84 parameter sets",
    ) as g:
        maps = _hpj_maps()  # each one the regular action of the presented group
        assert len(maps) == 84
        for q, m in zip(_hpj_parameter_range(), maps):
            assert type_of(m) == (4 * q[0], 2 * q[1])
            assert equivalence_key(m) == equivalence_key(cyclic_fitting_reference(q)), q


def _corpus():
    maps = [member.build() for member in members(2)]
    for p in (3, 5, 7, 11, 13):
        maps.append(families.dh1(p).build())
        maps.append(families.dh2(p).build())
    maps += _hpj_maps()
    for m_param in (1, 3, 5):
        maps.append(families.hp(m_param).build())
    maps.append(families.h3().build())
    maps += families.cyclic_by_dihedral_probe(5, 4)
    maps += families.cyclic_by_dihedral_probe(5, 6)
    for grp in atlas(16):
        maps += enumerate_maps(grp, want_chi=-2).values()
    return maps


def test_criterion_6_euler_identity_property_suite():
    with _Gate(6, "flag-orbit Euler counts and both orientability routes") as g:
        corpus = _corpus()
        assert len(corpus) >= 40
        for m in corpus:
            k, l = type_of(m)
            rhos = rho0, rho1, rho2 = flag_structure(m)
            v = orbit_count((rho1, rho2))
            e = orbit_count((rho0, rho2))
            f = orbit_count((rho0, rho1))
            chi_orbits = Fraction(v - e + f)
            group = group_from_action(m, "H")
            chi_formula = euler_characteristic_formula(group.order, k, l)
            assert chi_orbits == chi_formula, (
                f"chi mismatch on order {group.order} type {(k, l)}"
            )
            by_index = index_of_even_subgroup((group, marks(m))) == 2
            by_flags = _flag_graph_bipartite(rhos)
            assert by_index == by_flags, (
                f"orientability routes disagree on order {group.order}"
            )


def test_criterion_7_full_regularity():
    with _Gate(
        7, "full regularity: false across both families, true for the exceptions"
    ) as g:
        for m in _hpj_maps():
            assert not is_fully_regular(m)
        for m_param in (1, 3, 5):
            assert not is_fully_regular(families.hp(m_param).build())
        assert is_fully_regular(families.h3().build())
        regular = {
            i
            for i, member in enumerate(members(2), start=1)
            if is_fully_regular(member.build())
        }
        assert regular == {1, 3, 7, 10, 12}


def test_criterion_8_chi_minus_1_search():
    with _Gate(8, "chi=-1 maps exist only in the two dihedral groups") as g:
        report = census.verify_chi_minus_1_dihedral()
        assert report["passed"] is True
        hits = [r for r in report["groups"] if r["maps_found"]]
        assert sorted(r["order"] for r in hits) == [8, 12]
        assert all(r["dihedral"] for r in hits)
        # cross-check one of the hits directly
        d8_maps = enumerate_maps(dihedral(8), want_chi=-1)
        assert len(d8_maps) == 1


def test_criterion_9_structured_probe():
    with _Gate(9, "C_p semidirect D_2lambda probe: zero counterexamples") as g:
        for p, lam in ((3, 5), (5, 3), (7, 3), (7, 5)):
            found = families.cyclic_by_dihedral_probe(p, lam)
            # conformance of every found map was asserted inside the probe;
            # these four cells happen to carry no maps at all
            assert found == []
    assert g.elapsed < 60.0


def test_criterion_10_deterministic_output():
    with _Gate(10, "byte-identical catalog JSON across repeated runs") as g:
        for p in (2, 3):
            first = catalog_json(classify(p, profile="exhaustive"))
            second = catalog_json(classify(p, profile="exhaustive"))
            assert first.encode() == second.encode()
