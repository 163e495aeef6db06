"""Tests for the parameterized map families and the structured probes.

Each family member checks its own order and type when it is built; the
tests here pin the expected values independently and exercise invariants,
cross-route agreement, parameter validation and the roster of members.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ebrmaps
from ebrmaps import census, families, presentations
from ebrmaps.census import cyclic_by_dihedral_probe
from ebrmaps.cli import _FAMILY_FLAGS, _PROBE_GRID
from ebrmaps.families import (
    CHI2_FULLY_REGULAR_INDICES,
    CHI2_ORIENTABLE_INDICES,
    Member,
    chi2,
    cyclic_fitting_params,
    dh1,
    dh2,
    h3,
    hp,
    hpj,
    is_prime,
    members,
    presentation_text,
)
from ebrmaps.groups import (
    CapacityExceeded,
    FiniteGroup,
    VerificationError,
    are_isomorphic,
    dihedral,
    semidirect,
)
from ebrmaps.maps import (
    counts,
    dual,
    equivalence_key,
    euler_characteristic,
    is_fully_regular,
    is_orientable,
    is_self_dual,
    load_map,
    map_file_text,
    map_from_action,
    type_of,
)
from ebrmaps.presentations import (
    Presentation,
    _table_fault,
    coset_enumerate,
    parse_presentation,
    regular_action,
)
import references
from references import (
    cyclic_fitting_params_by_scan,
    group_from_action,
    is_map_isomorphic,
    probe_by_scan,
    standard_table,
)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-2, 32):
        assert is_prime(n) == (n in primes)
    assert is_prime(7919)
    assert not is_prime(7917)


def test_a_roster_tests_its_prime_once():
    # each of the nine members at p = 401 asks about p, as p itself or as
    # -chi; trial division runs on the first question only
    is_prime.cache_clear()
    assert len(members(401)) == 9
    assert is_prime.cache_info().misses == 1


def test_presentation_text_shape():
    text = presentation_text(("x y s",))
    lines = text.splitlines()
    assert lines[0] == "gens x y s t"
    assert lines[-1] == "rel x y s"
    # the six standing relators: four squares and the two commutations
    assert len(lines) == 8


def test_dihedral_family_1():
    for p in (3, 5, 7):
        m = dh1(p).build()
        assert group_from_action(m, "dh1").order == 4 * (p + 1)
        assert type_of(m) == (4 * (p + 1), 4)
        assert counts(m) == (1, 2 * (p + 1), p + 1)
        assert euler_characteristic(m) == -p
        assert are_isomorphic(group_from_action(m, "dh1"), dihedral(4 * (p + 1)))
        assert not is_fully_regular(m)


def test_dihedral_family_2():
    for p in (3, 5, 7):
        m = dh2(p).build()
        assert group_from_action(m, "dh2").order == 4 * (p + 2)
        assert type_of(m) == (2 * (p + 2), 4)
        assert counts(m) == (2, 2 * (p + 2), p + 2)
        assert euler_characteristic(m) == -p
        assert are_isomorphic(group_from_action(m, "dh2"), dihedral(4 * (p + 2)))
        assert not is_fully_regular(m)


def test_dihedral_families_reject_bad_p():
    for bad in (2, 9, -3, 1):
        with pytest.raises(ValueError, match=f"p must be an odd prime, got {bad}"):
            dh1(bad)
        with pytest.raises(ValueError, match=f"p must be an odd prime, got {bad}"):
            dh2(bad)


def test_family_params_derived_values():
    # order 4 kappa lam, type (4 kappa, 2 lam), chi = -(2 kappa lam - 2 kappa
    # - lam), and the exponent a = (j - 1)(lam + 1)/2 mod lam of the closing
    # relator (t y)^kappa (s x)^a s
    member = hpj(1, 5, 1)
    assert (member.order, member.map_type) == (20, (4, 10))
    assert member.text.endswith("\nrel (t y)^1 s\n")  # a = 0
    assert euler_characteristic(member.build()) == -3
    member = hpj(1, 5, 4)
    assert member.text.endswith("\nrel (t y)^1 (s x)^4 s\n")  # a = 9 mod 5
    assert euler_characteristic(member.build()) == -3
    member = hpj(3, 5, 4)
    assert (member.order, member.map_type) == (60, (12, 10))
    assert member.text.endswith("\nrel (t y)^3 (s x)^4 s\n")  # a = 9 mod 5, whatever kappa
    assert euler_characteristic(member.build()) == -(2 * 3 * 5 - 2 * 3 - 5)


def test_family_params_validation():
    for params, message in [
        ((2, 5, 1), "kappa must be a positive odd integer"),
        ((1, 4, 1), "lambda must be an odd integer >= 3"),
        ((1, 1, 0), "lambda must be an odd integer >= 3"),
        ((3, 9, 1), "kappa and lambda must be coprime"),
        ((1, 5, 0), "j must satisfy 0 < j < lambda"),
        ((1, 5, 5), "j must satisfy 0 < j < lambda"),
        ((1, 5, 2), r"j\^2 must be 1 modulo lambda"),  # j^2 = 4 is not 1 mod 5
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            hpj(*params)


def test_cyclic_fitting_params_small_primes():
    assert cyclic_fitting_params(3) == [
        (1, 5, 1),
        (1, 5, 4),
    ]
    # p + 1 = 12 = 3 * 4, and b = 3 is not 1 (mod 4)
    assert cyclic_fitting_params(11) == [(1, 13, 1), (1, 13, 12)]
    assert cyclic_fitting_params(19) == [
        (1, 21, 1),
        (1, 21, 8),
        (1, 21, 13),
        (1, 21, 20),
        (3, 5, 1),
        (3, 5, 4),
    ]
    assert cyclic_fitting_params(31) == [
        (1, 33, 1),
        (1, 33, 10),
        (1, 33, 23),
        (1, 33, 32),
    ]
    # every parameter set reproduces p
    for p in (3, 19, 31, 43):
        for kappa, lam, _ in cyclic_fitting_params(p):
            assert 2 * kappa * lam - 2 * kappa - lam == p


def test_cyclic_fitting_params_equal_the_scan_of_every_b_and_j():
    # the divisor pairs and the roots of j^2 = 1 from coprime splittings of
    # lam give the parameters, in their order, that trying every b <= p + 1
    # and every j < lam gives
    for p in range(3, 3000, 2):
        if is_prime(p):
            assert cyclic_fitting_params(p) == cyclic_fitting_params_by_scan(p), p


def test_cyclic_fitting_map_both_routes():
    # the map is built as an explicit extension of a cyclic group by the
    # Klein four group and certified against its presentation
    for kappa, lam, j in [(1, 5, 1), (1, 5, 4), (3, 5, 4)]:
        m = hpj(kappa, lam, j).build()
        assert group_from_action(m, "hpj").order == 4 * kappa * lam
        assert type_of(m) == (4 * kappa, 2 * lam)
        assert euler_characteristic(m) == -(2 * kappa * lam - 2 * kappa - lam)
        assert not is_fully_regular(m)
    # coset enumeration of the same presentation gives an isomorphic map
    member = hpj(1, 7, 6)
    mp = load_map(map_file_text(member.text))
    md = member.build()
    assert is_map_isomorphic(mp, md)


def test_cyclic_fitting_text_mentions_parameters():
    text = hpj(3, 5, 4).text
    assert "(s x)^5" in text  # lambda
    assert "(t y)^6" in text  # 2*kappa
    assert "(s x)^4" in text  # j


def test_valency_eight_map():
    for m_param in (1, 3):
        m = hp(m_param).build()
        assert group_from_action(m, "hp").order == 24 * m_param
        assert type_of(m) == (8, 6 * m_param)
        assert euler_characteristic(m) == -(9 * m_param - 4)
        assert not is_fully_regular(m)
    with pytest.raises(ValueError):
        hp(2)  # m must be odd
    with pytest.raises(ValueError):
        hp(0)


def test_valency_eight_map_warns_on_composite_characteristic():
    # m = 9 gives chi = -77 = -7*11: the construction still works but warns
    with pytest.warns(UserWarning, match="-chi = 77 is not prime"):
        member = hp(9)
    assert group_from_action(member.build(), "hp").order == 216


def test_hpj_warns_on_composite_characteristic():
    # kappa = 1, lam = 27 gives p = 2*27 - 2 - 27 = 25, as hp warns for m = 9
    with pytest.warns(UserWarning, match="-chi = 25 is not prime"):
        member = hpj(1, 27, 1)
    m = member.build()
    assert (len(m[0]), euler_characteristic(m)) == (108, -25)
    # lam = 3, kappa = 1 gives p = 1, which is no prime either
    with pytest.warns(UserWarning, match="-chi = 1 is not prime"):
        hpj(1, 3, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hpj(1, 5, 4).label == "hpj(1,5,4)"  # p = 3


def test_valency_eight_map_equals_the_enumerated_map():
    # C_m' x| hp(3^e) against the regular action of the presentation found
    # by coset enumeration; m = 3, 9 and 27 have a quotient B other than S_4
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # 9m - 4 is often composite
        for m in range(1, 42, 2):
            member = hp(m)
            reference = load_map(map_file_text(member.text))
            assert equivalence_key(member.build()) == equivalence_key(reference), m


def test_valency_eight_map_enumerates_at_most_its_quotient(monkeypatch):
    # the one enumeration is of the cosets of <s x> (index 8), never the
    # 24m cosets of the trivial subgroup of H nor the 24*3^e of its
    # quotient B
    enumerate_cosets = presentations.coset_enumerate
    cosets = []

    def counting(*args, **kwargs):
        table = enumerate_cosets(*args, **kwargs)
        cosets.append(table.num_cosets)
        return table

    monkeypatch.setattr(presentations, "coset_enumerate", counting)
    for m in (5, 35, 1103, 45):
        cosets.clear()
        assert len(hp(m).build()[0]) == 24 * m
        assert cosets == [8], m


def test_exceptional_order36():
    m = h3().build()
    assert group_from_action(m, "h3").order == 36
    assert type_of(m) == (4, 6)
    assert counts(m) == (9, 18, 6)
    assert euler_characteristic(m) == -3
    assert is_fully_regular(m)
    assert not is_orientable(m)


def test_chi_minus_2_catalog():
    cat = [member.build() for member in members(2)]
    assert len(cat) == 12
    # the orders and types of the paper's table, with k <= l
    orders = [8, 12, 12] + [16] * 6 + [24] * 3
    assert [group_from_action(m, "chi2").order for m in cat] == orders
    types = [(8, 8), (4, 12), (6, 6)] + [(4, 8)] * 6 + [(4, 6)] * 3
    for i, m in enumerate(cat, start=1):
        k, l = type_of(m)
        if k > l:
            k, l = l, k
        assert (k, l) == types[i - 1]
        assert euler_characteristic(m) == -2
        assert is_orientable(m) == (i in CHI2_ORIENTABLE_INDICES)
        assert is_fully_regular(m) == (i in CHI2_FULLY_REGULAR_INDICES)
    # exactly two members are self-dual
    assert [i for i, m in enumerate(cat, start=1) if is_self_dual(m)] == [1, 3]
    # pairwise inequivalent even under duality and twin
    assert len({equivalence_key(m) for m in cat}) == 12


def test_chi_minus_2_text_validation():
    assert "gens x y s t" in chi2(1).text
    for bad in (0, 13, -1):
        with pytest.raises(ValueError, match="index must be between 1 and 12"):
            chi2(bad)


# --- the roster -------------------------------------------------------------


def test_members_build_with_chi_minus_p_for_every_prime_below_100():
    for p in filter(is_prime, range(100)):
        roster = members(p)
        labels = [member.label for member in roster]
        assert len(set(labels)) == len(labels), p
        for member in roster:
            assert euler_characteristic(member.build()) == -p, member.label


def test_members_roster_branches():
    assert [member.label for member in members(2)] == [f"chi2({i})" for i in range(1, 13)]
    assert [member.label for member in members(3)] == [
        "dh1", "dh2", "hpj(1,5,1)", "hpj(1,5,4)", "h3"
    ]
    for p in filter(is_prime, range(3, 1000)):
        families_of = [member.label.split("(")[0] for member in members(p)]
        assert families_of[:2] == ["dh1", "dh2"], p
        assert families_of.count("hpj") == len(cyclic_fitting_params(p)), p
        assert families_of.count("hp") == ((p + 4) % 9 == 0), p
        assert families_of.count("h3") == (p == 3), p
    last, expected = members(23)[-1], hp(3)
    assert (last.label, last.text) == (expected.label, expected.text)
    with pytest.raises(ValueError, match="p must be an odd prime, got 9"):
        members(9)


def test_every_family_choice_names_its_member_constructor():
    # the construct command resolves --family by name in families
    sample = {"p": 5, "kappa": 1, "lambda": 5, "j": 4, "m": 1, "index": 3}
    for family, flags in _FAMILY_FLAGS.items():
        member = getattr(families, family)(*(sample[flag] for flag in flags))
        assert isinstance(member, Member), family
        assert member.label == family or member.label.startswith(f"{family}("), member.label
    assert set(_FAMILY_FLAGS) == {"dh1", "dh2", "hpj", "hp", "h3", "chi2"}


def test_member_build_checks_capacity_order_and_type(monkeypatch):
    member = dh1(5)  # order 24
    assert len(member.build(max_cosets=24)[0]) == 24

    def refuse(*args, **kwargs):
        raise AssertionError("a permutation was built")

    with monkeypatch.context() as patched:
        patched.setattr(families, "regular_action", refuse)
        with pytest.raises(CapacityExceeded):
            member.build(max_cosets=23)
    wrong_order = Member("dh1", member.text, member.w, 28, member.map_type)
    with pytest.raises(VerificationError, match=r"^dh1: expected order 28, got 24$"):
        wrong_order.build()
    wrong_type = Member("dh1", member.text, member.w, 24, (4, 24))
    with pytest.raises(VerificationError, match=r"^dh1: expected type \(4, 24\), got \(24, 4\)$"):
        wrong_type.build()


def test_probe_vacuous_cells():
    # odd lambda coprime to p: |C_p x| D_2lambda| = 2*p*lambda = 2 mod 4,
    # too few involutions for any quadruple; the probe returns no maps
    for p, lam in ((3, 5), (5, 3), (7, 3), (7, 5)):
        assert cyclic_by_dihedral_probe(p, lam) == []


def test_probe_even_lambda_cells():
    # lambda = 4: two maps exist; both have vertex valency divisible by p,
    # which places them outside the probe's conformance hypothesis, so the
    # call completes without tripping any assertion
    found = sorted(tuple(sorted(type_of(m))) for m in cyclic_by_dihedral_probe(5, 4))
    assert found == [(4, 40), (40, 40)]
    # lambda = 6: a rich cell including in-hypothesis maps
    maps = cyclic_by_dihedral_probe(5, 6)
    assert len(maps) == 16
    norm_types = {tuple(sorted(type_of(m))) for m in maps}
    assert (12, 12) in norm_types  # chi = -20 member satisfying the hypothesis
    assert (4, 12) in norm_types  # its dual-form companion at chi = -10
    for m in maps:
        assert group_from_action(m, "C5:D12").order == 60


def test_probe_reports_chi_against_its_integer_prediction(monkeypatch):
    # at (p, lambda) = (5, 6) both predictions are met: chi = p(1 - l/4) =
    # -10 for k = 4 and p(2 - l/2) = -20 for k = l = 12
    maps = cyclic_by_dihedral_probe(5, 6)
    monkeypatch.setattr(census, "euler_characteristic", lambda m: 0)
    reports = set()
    for m in maps:
        for form in (m, dual(m)):
            try:
                census._assert_probe_conformance(5, 12, form)
            except VerificationError as exc:
                reports.add((type_of(form), str(exc)))
    assert reports == {
        ((4, 12), "chi 0 differs from the predicted -10"),
        ((12, 12), "chi 0 differs from the predicted -20"),
    }


@pytest.mark.parametrize("p, lam", [(5, 3), (7, 5), (5, 4), (5, 6)])
def test_probe_builds_one_group_per_homomorphism(monkeypatch, p, lam):
    # a homomorphism D_2lam -> {1, -1} in U(p) sends the two reflection marks
    # to e1, e2 with (e1 e2)^lam = 1: both signs equal when lam is odd, and
    # any pair when it is even; semidirect rejects the other pairs
    built = []

    def record(a, b, images, name=None):
        group = semidirect(a, b, images, name=name)
        built.append((images, group))
        return group

    monkeypatch.setattr(census, "semidirect", record)
    cyclic_by_dihedral_probe(p, lam)
    signs = (tuple(range(p)), tuple(-c % p for c in range(p)))
    pairs = [(e, e) for e in signs] if lam % 2 else [(e1, e2) for e1 in signs for e2 in signs]
    marks = (lam, lam + 1)  # the generating reflections of dihedral(2 * lam)
    assert [(images[marks[0]], images[marks[1]]) for images, _ in built] == pairs
    assert [group.name for _, group in built] == [f"C{p}:D{2 * lam}"] * len(pairs)


@pytest.mark.parametrize("p, lam", _PROBE_GRID)
def test_probe_finds_and_checks_what_the_scan_of_every_quadruple_does(monkeypatch, p, lam):
    # the probe checks one map and its dual per class; together they must
    # cover every (type, chi) that checking every quadruple covers
    built, probed, scanned = [], set(), set()

    def record(*args, **kwargs):
        built.append(semidirect(*args, **kwargs))
        return built[-1]

    def recording(into, check):
        return lambda p, nu, m: into.add((type_of(m), euler_characteristic(m))) or check(p, nu, m)

    monkeypatch.setattr(census, "semidirect", record)
    conformance = census._assert_probe_conformance
    monkeypatch.setattr(census, "_assert_probe_conformance", recording(probed, conformance))
    monkeypatch.setattr(references, "_assert_probe_conformance", recording(scanned, conformance))
    found = cyclic_by_dihedral_probe(p, lam)
    expected = probe_by_scan(p, 2 * lam, built)
    assert [m for m in found] == [m for m in expected]
    assert probed == scanned


def test_probe_parameter_validation():
    with pytest.raises(ValueError):
        cyclic_by_dihedral_probe(4, 5)  # p must be an odd prime
    with pytest.raises(ValueError):
        cyclic_by_dihedral_probe(2, 5)
    with pytest.raises(ValueError):
        cyclic_by_dihedral_probe(5, 2)  # lambda >= 3
    with pytest.raises(ValueError):
        cyclic_by_dihedral_probe(3, 9)  # p must not divide lambda


# --- linear-size construction ----------------------------------------------


def test_families_build_no_large_dense_group(monkeypatch):
    # maps come from permutations; a dense table is only built for small
    # auxiliary groups
    orders = []
    original = FiniteGroup.__post_init__

    def counting(self):
        orders.append(len(self.mul))
        original(self)

    monkeypatch.setattr(FiniteGroup, "__post_init__", counting)
    m = dh1(997).build()
    assert len(m[0]) == 3992
    entries = census.classify(101, "constructive")
    assert len(entries) == 3
    assert max(orders, default=0) <= 64


def _run_optimized(script):
    env = dict(os.environ, PYTHONPATH=str(Path(ebrmaps.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


_CORRUPT_ACTION = """
import ebrmaps.families as families
import ebrmaps.presentations as presentations

assert False, "assert statements must be stripped"
good = presentations.coset_enumerate
def corrupted(*args, **kwargs):
    columns = list(good(*args, **kwargs).columns)
    columns[{g}] = tuple(range(len(columns[{g}])))
    return presentations.CosetTable(tuple(columns))
presentations.coset_enumerate = corrupted
{build}
"""

_WRONG_RELATOR = """
import sys
sys.path.insert(0, {tests!r})
import ebrmaps.families as families
from ebrmaps.maps import equivalence_key
from references import cyclic_fitting_reference

assert False, "assert statements must be stripped"
q, other = families.hpj(1, 21, 1), families.hpj(1, 21, 8)
key = equivalence_key(families.Member(q.label, other.text, q.w, q.order, q.map_type).build())
print(key == equivalence_key(cyclic_fitting_reference((1, 21, 1))))
print(key == equivalence_key(cyclic_fitting_reference((1, 21, 8))))
"""

_WRONG_ORDER = """
import ebrmaps.families as families

assert False, "assert statements must be stripped"
good, wrong = families.dh1(5), families.dh2(5)
families.Member(good.label, wrong.text, good.w, good.order, good.map_type).build()
"""


def test_corrupted_direct_action_fails_under_python_O():
    # the coset table of <(s x)(t y)^2> as if s fixed every coset: the
    # lifted action breaks a relator
    build = "families.hpj(1, 5, 4).build()"
    proc = _run_optimized(_CORRUPT_ACTION.format(g=2, build=build))
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last == "ebrmaps.groups.VerificationError: relator does not close"


def test_corrupted_dihedral_inversion_fails_under_python_O():
    # the coset table of <y t> as if t fixed both cosets: the rewritten
    # y t no longer generates the quotient of the Schreier lattice
    build = "families.dh1(5).build()"
    proc = _run_optimized(_CORRUPT_ACTION.format(g=3, build=build))
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last == (
        "ebrmaps.groups.VerificationError: the rewritten w does not generate the subgroup <w>"
    )


def test_wrong_relator_fails_under_python_O():
    # the relators of j = 8 built for j = 1: order 84 and type (4, 42)
    # agree, so the constructor accepts them; the semidirect reference
    # tells the two maps apart
    proc = _run_optimized(_WRONG_RELATOR.format(tests=str(Path(__file__).parent)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "True"]


def test_family_order_check_survives_python_O():
    proc = _run_optimized(_WRONG_ORDER)
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last == "ebrmaps.groups.VerificationError: dh1: expected order 24, got 28"


# --- the regular action lifted through a cyclic subgroup -------------------


def test_certificate_equals_hlt_index_and_map_for_small_p():
    # the lift goes through the cosets of a cyclic subgroup; the
    # trivial-subgroup enumeration is the independent reference
    built = {}
    for p in filter(is_prime, range(3, 102)):
        for member in members(p):
            m = member.build()
            reference = map_from_action(regular_action(parse_presentation(member.text)))
            assert len(reference[0]) == len(m[0])
            assert standard_table(m) == standard_table(reference)
            family = member.label.split("(")[0]
            built[family] = built.get(family, 0) + 1
    assert built == {"dh1": 25, "dh2": 25, "hpj": 106, "hp": 4, "h3": 1}


def test_certificate_on_small_presentations():
    # D12 through <a b> (index 2) and through <a> (index 6, a fixes cosets)
    d12 = parse_presentation("gens a b\nrel a^2\nrel b^2\nrel (a b)^6\n")
    assert len(regular_action(d12, (0, 1))[0]) == 12
    assert len(regular_action(d12, (0,))[0]) == 12
    # the infinite dihedral group: <a b> has index 2 and is infinite
    infinite = parse_presentation("gens a b\nrel a^2\nrel b^2\n")
    with pytest.raises(VerificationError, match="infinite"):
        regular_action(infinite, (0, 1))
    # dh1 without s (y t)^(p+1): y t has infinite order
    pres = parse_presentation(presentation_text(("x y s",)))
    with pytest.raises(VerificationError, match="infinite"):
        regular_action(pres, (1, 3))


def test_lift_equals_the_regular_action_of_d12():
    # through <a b>, <a> and <b>; a and b fix cosets of <a> and <b>, whose
    # edges are the variables with c = c g, of order 2 in the lattice; also
    # through <(a b)^2>, of index 4, and the trivial <a a>
    d12 = parse_presentation("gens a b\nrel a^2\nrel b^2\nrel (a b)^6\n")
    reference = standard_table(regular_action(d12))
    for w in ((0, 1), (0,), (1,), (0, 1, 0, 1), (0, 0)):
        assert standard_table(regular_action(d12, w)) == reference, w
    assert regular_action(d12, ()) == coset_enumerate(d12).columns


def _lattice_and_w(rows):
    """The rows the lift passes to _echelon, split by their last (counter)
    coordinate into the relator rows and the row of w, each without it."""
    lattice = [row[:-1] for row in rows if row[-1] == 0]
    (v,) = [row[:-1] for row in rows if row[-1] == 1]
    return lattice, v


def test_lift_reads_the_order_of_w_off_the_last_pivot(monkeypatch):
    # hpj(3,5,4) at p = 19: the relator lattice of <(s x)(t y)^2> has
    # pivots 5 and 3; with the row of w joined, the basis has unit pivots
    # and the last pivot 15 = |<w>|
    member = hpj(3, 5, 4)
    echelon, calls = presentations._echelon, []

    def recording(rows):
        calls.append((rows, echelon(rows)))
        return calls[-1][1]

    monkeypatch.setattr(presentations, "_echelon", recording)
    m = member.build()
    [(rows, basis)] = calls
    lattice, _ = _lattice_and_w(rows)
    assert [row[j] for j, row in enumerate(echelon(lattice)) if row[j] != 1] == [5, 3]
    assert [row[j] for j, row in enumerate(basis)] == [1] * (len(basis) - 1) + [15]
    assert equivalence_key(m) == equivalence_key(references.cyclic_fitting_reference((3, 5, 4)))
    reference = regular_action(parse_presentation(member.text))
    assert standard_table(m) == standard_table(reference)


def test_back_substitution_equals_the_adjugate_solve(monkeypatch):
    # every lift's |<w>| and powers of w, read off its one basis, against
    # the former solve from the echelon of the relator lattice alone
    echelon, log, lifts = presentations._echelon, presentations._discrete_log, []

    def recording_echelon(rows):
        lifts.append([rows])
        return echelon(rows)

    def recording_log(basis, n):
        a = log(basis, n)
        lifts[-1] += [n, list(a)]
        return a

    monkeypatch.setattr(presentations, "_echelon", recording_echelon)
    monkeypatch.setattr(presentations, "_discrete_log", recording_log)
    d12 = parse_presentation("gens a b\nrel a^2\nrel b^2\nrel (a b)^6\n")
    for w in ((0, 1), (0,), (1,), (0, 1, 0, 1), (0, 0)):
        regular_action(d12, w)
    for p in filter(is_prime, range(3, 102)):
        for member in members(p):
            member.build()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # 9m - 4 is often composite
        for m in range(1, 42, 2):
            hp(m).build()
    assert len(lifts) == 5 + 160 + 21  # h3 is not lifted
    for rows, n, a in lifts:
        lattice, v = _lattice_and_w(rows)
        basis = echelon(lattice)
        order = 1
        for j, row in enumerate(basis):
            order *= row[j]
        assert (n, a) == (order, references.discrete_log_by_adjugate(basis, v, order))


def test_cyclic_fitting_map_matches_its_semidirect_reference():
    # every hpj member with p < 102 against (C_lam x C_kappa) x| V_4; the
    # members of j and lam - j have equal keys
    keys = {}
    for p in filter(is_prime, range(3, 102)):
        for q in cyclic_fitting_params(p):
            keys[q] = key = equivalence_key(hpj(*q).build())
            assert key == equivalence_key(references.cyclic_fitting_reference(q)), q
    assert len(keys) == 106
    for (kappa, lam, j), key in keys.items():
        assert keys[kappa, lam, lam - j] == key


def test_valency_eight_map_matches_its_semidirect_reference():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # 9m - 4 is often composite
        for m in range(1, 42, 2):
            reference = references.valency_eight_reference(m)
            assert equivalence_key(hp(m).build()) == equivalence_key(reference), m


def test_certified_families_never_enumerate_the_trivial_subgroup(monkeypatch):
    # every enumeration is of the cosets of some <w>, never of the trivial
    # subgroup
    enumerate_cosets = presentations.coset_enumerate

    def refuse_trivial(pres, subgroup_generators=(), *args, **kwargs):
        if not subgroup_generators:
            raise AssertionError("trivial-subgroup enumeration")
        return enumerate_cosets(pres, subgroup_generators, *args, **kwargs)

    monkeypatch.setattr(presentations, "coset_enumerate", refuse_trivial)
    assert len(dh1(997).build()[0]) == 3992
    # p = 1009 has no valency-eight member
    # (test_valency_eight_map_enumerates_at_most_its_quotient)
    entries = census.classify(1009, "constructive")
    assert {member.label[:3] for _, member in entries} == {"dh1", "dh2", "hpj"}


_CERTIFICATE_REJECTS = """
import ebrmaps.families as families
import ebrmaps.presentations as presentations
from ebrmaps.groups import VerificationError

assert False, "assert statements must be stripped"

def attempt(build):
    try:
        build()
    except VerificationError as exc:
        print(exc)

good_log = presentations._discrete_log
dh1 = families.dh1(5)
exponents = []

def bumped(k):
    def log(*args):
        a = good_log(*args)
        exponents.append(len(a))
        a[k] += 1
        return a
    return log

# each exponent of the lift in turn one too large
for k in range(4):
    presentations._discrete_log = bumped(k)
    attempt(dh1.build)
presentations._discrete_log = good_log
print(exponents)
# without s (y t)^(p+1) the presented group is infinite
text = families.presentation_text(("x y s",))
attempt(families.Member(dh1.label, text, dh1.w, dh1.order, dh1.map_type).build)
print(len(dh1.build()[0]))
"""


def test_certificate_rejections_survive_python_O():
    proc = _run_optimized(_CERTIFICATE_REJECTS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "relator does not close",
        "generator column is not an involution",
        "generator column is not an involution",
        "relator does not close",
        "[4, 4, 4, 4]",
        "the subgroup <w> is infinite",
        "24",
    ]


def test_broken_action_fails_exactly_one_relator():
    # t' = t y t = y r^2 for r = y t: every relator holds but s (y t)^(p+1)
    p = 5
    pres = parse_presentation(dh1(p).text)
    good = regular_action(pres, (1, 3))
    x, y, s, t = good
    bad = (x, y, s, tuple(t[y[t[h]]] for h in range(len(t))))
    assert _table_fault(good, pres, ()) is None
    assert _table_fault(bad, pres, ()) == "relator does not close"
    one_relator = [Presentation(pres.generator_names, (f,)) for f in pres.relator_forms]
    failing = [q.relators for q in one_relator if _table_fault(bad, q, ())]
    assert failing == [parse_presentation(f"gens x y s t\nrel s (y t)^{p + 1}\n").relators]
