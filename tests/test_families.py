"""Tests for the parameterized map families and the structured probes.

Each family constructor checks its own order and type internally; the
tests here pin the expected values independently and exercise invariants,
cross-route agreement and parameter validation.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ebrmaps
from ebrmaps import census, families
from ebrmaps.cli import _PROBE_GRID
from ebrmaps.families import (
    CHI2_EXPECTED_ORDERS,
    CHI2_EXPECTED_TYPES,
    CHI2_FULLY_REGULAR_INDICES,
    CHI2_ORIENTABLE_INDICES,
    FamilyParams,
    chi_minus_2_catalog,
    chi_minus_2_text,
    cyclic_by_dihedral_probe,
    cyclic_fitting_map,
    cyclic_fitting_params,
    cyclic_fitting_text,
    dihedral_family_1,
    dihedral_family_1_text,
    dihedral_family_2,
    dihedral_family_2_text,
    exceptional_order36_map,
    is_prime,
    presentation_text,
    regular_action_through,
    valency_eight_map,
    valency_eight_text,
)
from ebrmaps.groups import (
    FiniteGroup,
    VerificationError,
    are_isomorphic,
    dihedral,
    semidirect,
)
from ebrmaps.maps import (
    counts,
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
    CosetTable,
    Presentation,
    _table_fault,
    parse_presentation,
    regular_action,
)
import references
from references import is_map_isomorphic, probe_by_scan, standard_table


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-2, 32):
        assert is_prime(n) == (n in primes)
    assert is_prime(7919)
    assert not is_prime(7917)


def test_presentation_text_shape():
    text = presentation_text(("x y s",))
    lines = text.splitlines()
    assert lines[0] == "gens x y s t"
    assert lines[-1] == "rel x y s"
    # the six standing relators: four squares and the two commutations
    assert len(lines) == 8


def test_dihedral_family_1():
    for p in (3, 5, 7):
        m = dihedral_family_1(p)
        assert m.group.order == 4 * (p + 1)
        assert type_of(m) == (4 * (p + 1), 4)
        assert counts(m) == (1, 2 * (p + 1), p + 1)
        assert euler_characteristic(m) == -p
        assert are_isomorphic(m.group, dihedral(4 * (p + 1)))
        assert not is_fully_regular(m)


def test_dihedral_family_2():
    for p in (3, 5, 7):
        m = dihedral_family_2(p)
        assert m.group.order == 4 * (p + 2)
        assert type_of(m) == (2 * (p + 2), 4)
        assert counts(m) == (2, 2 * (p + 2), p + 2)
        assert euler_characteristic(m) == -p
        assert are_isomorphic(m.group, dihedral(4 * (p + 2)))
        assert not is_fully_regular(m)


def test_dihedral_families_reject_bad_p():
    for bad in (2, 9, -3, 1):
        with pytest.raises(ValueError):
            dihedral_family_1(bad)
        with pytest.raises(ValueError):
            dihedral_family_2(bad)


def test_family_params_derived_values():
    q = FamilyParams(1, 5, 1)
    assert (q.a, q.p, q.order, q.map_type) == (0, 3, 20, (4, 10))
    q = FamilyParams(1, 5, 4)
    assert q.a == ((4 - 1) * 6 // 2) % 5  # = 4
    assert q.p == 3
    q = FamilyParams(3, 5, 4)
    assert q.p == 2 * 3 * 5 - 2 * 3 - 5  # = 19
    assert q.order == 60
    assert q.map_type == (12, 10)


def test_family_params_validation():
    with pytest.raises(ValueError):
        FamilyParams(2, 5, 1)  # kappa must be odd
    with pytest.raises(ValueError):
        FamilyParams(1, 4, 1)  # lambda must be odd
    with pytest.raises(ValueError):
        FamilyParams(1, 1, 0)  # lambda >= 3
    with pytest.raises(ValueError):
        FamilyParams(3, 9, 1)  # kappa, lambda coprime
    with pytest.raises(ValueError):
        FamilyParams(1, 5, 0)  # 0 < j < lambda
    with pytest.raises(ValueError):
        FamilyParams(1, 5, 5)
    with pytest.raises(ValueError):
        FamilyParams(1, 5, 2)  # j^2 = 4 is not 1 mod 5


def test_cyclic_fitting_params_small_primes():
    assert [(q.kappa, q.lam, q.j) for q in cyclic_fitting_params(3)] == [
        (1, 5, 1),
        (1, 5, 4),
    ]
    assert [(q.kappa, q.lam, q.j) for q in cyclic_fitting_params(19)] == [
        (1, 21, 1),
        (1, 21, 8),
        (1, 21, 13),
        (1, 21, 20),
        (3, 5, 1),
        (3, 5, 4),
    ]
    assert [(q.kappa, q.lam, q.j) for q in cyclic_fitting_params(31)] == [
        (1, 33, 1),
        (1, 33, 10),
        (1, 33, 23),
        (1, 33, 32),
    ]
    # every parameter set reproduces p
    for p in (3, 19, 31, 43):
        for q in cyclic_fitting_params(p):
            assert q.p == p


def test_cyclic_fitting_map_both_routes():
    # the map is built as an explicit extension of a cyclic group by the
    # Klein four group and certified against its presentation
    for q in [FamilyParams(1, 5, 1), FamilyParams(1, 5, 4), FamilyParams(3, 5, 4)]:
        m = cyclic_fitting_map(q)
        assert m.group.order == q.order
        assert type_of(m) == q.map_type
        assert euler_characteristic(m) == -q.p
        assert not is_fully_regular(m)
    # coset enumeration of the same presentation gives an isomorphic map
    q = FamilyParams(1, 7, 6)
    mp = load_map(map_file_text(cyclic_fitting_text(q)))
    md = cyclic_fitting_map(q)
    assert is_map_isomorphic(mp, md)


def test_cyclic_fitting_text_mentions_parameters():
    q = FamilyParams(3, 5, 4)
    text = cyclic_fitting_text(q)
    assert "(s x)^5" in text  # lambda
    assert "(t y)^6" in text  # 2*kappa
    assert "(s x)^4" in text  # j


def test_valency_eight_map():
    for m_param in (1, 3):
        m = valency_eight_map(m_param)
        assert m.group.order == 24 * m_param
        assert type_of(m) == (8, 6 * m_param)
        assert euler_characteristic(m) == -(9 * m_param - 4)
        assert not is_fully_regular(m)
    with pytest.raises(ValueError):
        valency_eight_map(2)  # m must be odd
    with pytest.raises(ValueError):
        valency_eight_map(0)


def test_valency_eight_map_warns_on_composite_characteristic():
    # m = 9 gives chi = -77 = -7*11: the construction still works but warns
    with pytest.warns(UserWarning):
        m = valency_eight_map(9)
    assert m.group.order == 216


def test_valency_eight_map_equals_the_enumerated_map():
    # C_m' x| ve(3^e) against the regular action of the presentation found
    # by coset enumeration; m = 3, 9 and 27 have a quotient B other than S_4
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # 9m - 4 is often composite
        for m in range(1, 42, 2):
            reference = load_map(map_file_text(valency_eight_text(m)))
            assert equivalence_key(valency_eight_map(m)) == equivalence_key(reference), m


def test_valency_eight_map_enumerates_at_most_its_quotient(monkeypatch):
    # the one enumeration is of the cosets of <s x> (index 8), never the
    # 24m cosets of the trivial subgroup of H nor the 24*3^e of its
    # quotient B
    import ebrmaps.presentations as presentations_module

    enumerate_cosets = presentations_module.coset_enumerate
    cosets = []

    def counting(*args, **kwargs):
        table = enumerate_cosets(*args, **kwargs)
        cosets.append(table.num_cosets)
        return table

    monkeypatch.setattr(presentations_module, "coset_enumerate", counting)
    monkeypatch.setattr(families, "coset_enumerate", counting)
    for m in (5, 35, 1103, 45):
        cosets.clear()
        assert valency_eight_map(m).order == 24 * m
        assert cosets == [8], m


def test_exceptional_order36():
    m = exceptional_order36_map()
    assert m.group.order == 36
    assert type_of(m) == (4, 6)
    assert counts(m) == (9, 18, 6)
    assert euler_characteristic(m) == -3
    assert is_fully_regular(m)
    assert not is_orientable(m)


def test_chi_minus_2_catalog():
    cat = chi_minus_2_catalog()
    assert len(cat) == 12
    assert tuple(m.group.order for m in cat) == CHI2_EXPECTED_ORDERS
    for i, m in enumerate(cat, start=1):
        k, l = type_of(m)
        if k > l:
            k, l = l, k
        assert (k, l) == CHI2_EXPECTED_TYPES[i - 1]
        assert euler_characteristic(m) == -2
        assert is_orientable(m) == (i in CHI2_ORIENTABLE_INDICES)
        assert is_fully_regular(m) == (i in CHI2_FULLY_REGULAR_INDICES)
    # exactly two members are self-dual
    assert [i for i, m in enumerate(cat, start=1) if is_self_dual(m)] == [1, 3]
    # pairwise inequivalent even under duality and twin
    assert len({equivalence_key(m) for m in cat}) == 12


def test_chi_minus_2_text_validation():
    assert "gens x y s t" in chi_minus_2_text(1)
    for bad in (0, 13, -1):
        with pytest.raises(ValueError):
            chi_minus_2_text(bad)


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
        assert m.group.order == 60


@pytest.mark.parametrize("p, lam", [(5, 3), (7, 5), (5, 4), (5, 6)])
def test_probe_builds_one_group_per_homomorphism(monkeypatch, p, lam):
    # a homomorphism D_2lam -> {1, -1} in U(p) sends the two reflection marks
    # to e1, e2 with (e1 e2)^lam = 1: both signs equal when lam is odd, and
    # any pair when it is even; semidirect rejects the other pairs
    built = []

    def record(a, b, action, name=None):
        group = semidirect(a, b, action, name=name)
        built.append((action, group))
        return group

    monkeypatch.setattr(families, "semidirect", record)
    cyclic_by_dihedral_probe(p, lam)
    signs = (tuple(range(p)), tuple(-c % p for c in range(p)))
    pairs = [(e, e) for e in signs] if lam % 2 else [(e1, e2) for e1 in signs for e2 in signs]
    marks = (lam, lam + 1)  # the generating reflections of dihedral(2 * lam)
    assert [(action[marks[0]], action[marks[1]]) for action, _ in built] == pairs
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

    monkeypatch.setattr(families, "semidirect", record)
    conformance = families._assert_probe_conformance
    monkeypatch.setattr(families, "_assert_probe_conformance", recording(probed, conformance))
    monkeypatch.setattr(references, "_assert_probe_conformance", recording(scanned, conformance))
    found = cyclic_by_dihedral_probe(p, lam)
    expected = probe_by_scan(p, 2 * lam, built)
    assert [(m.name, m.marks) for m in found] == [(m.name, m.marks) for m in expected]
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
    m = dihedral_family_1(997)
    assert m.order == 3992
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
from ebrmaps.presentations import CosetTable

assert False, "assert statements must be stripped"
good = families.coset_enumerate
def corrupted(*args, **kwargs):
    columns = list(good(*args, **kwargs).columns)
    columns[{g}] = tuple(range(len(columns[{g}])))
    return CosetTable(tuple(columns))
families.coset_enumerate = corrupted
{build}
"""

_WRONG_RELATOR = """
import sys
sys.path.insert(0, {tests!r})
import ebrmaps.families as families
from ebrmaps.maps import equivalence_key
from references import cyclic_fitting_reference

assert False, "assert statements must be stripped"
q, other = families.FamilyParams(1, 21, 1), families.FamilyParams(1, 21, 8)
text = families.cyclic_fitting_text
families.cyclic_fitting_text = lambda params: text(other)
key = equivalence_key(families.cyclic_fitting_map(q))
print(key == equivalence_key(cyclic_fitting_reference(q)))
print(key == equivalence_key(cyclic_fitting_reference(other)))
"""

_WRONG_ORDER = """
import ebrmaps.families as families

assert False, "assert statements must be stripped"
families.dihedral_family_1_text = families.dihedral_family_2_text
families.dihedral_family_1(5)
"""


def test_corrupted_direct_action_fails_under_python_O():
    # the coset table of <(s x)(t y)^2> as if s fixed every coset: the
    # lifted action breaks a relator
    build = "families.cyclic_fitting_map(families.FamilyParams(1, 5, 4))"
    proc = _run_optimized(_CORRUPT_ACTION.format(g=2, build=build))
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last == "ebrmaps.groups.VerificationError: relator does not close"


def test_corrupted_dihedral_inversion_fails_under_python_O():
    # the coset table of <y t> as if t fixed both cosets: the rewritten
    # y t no longer generates the quotient of the Schreier lattice
    build = "families.dihedral_family_1(5)"
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
    assert last == "ebrmaps.groups.VerificationError: dh1(5): expected order 24, got 28"


# --- the regular action lifted through a cyclic subgroup -------------------


def test_certificate_equals_hlt_index_and_map_for_small_p():
    # the lift goes through the cosets of a cyclic subgroup; the
    # trivial-subgroup enumeration is the independent reference
    built = {}
    for p in filter(is_prime, range(3, 102)):
        texts = [
            ("dh1", dihedral_family_1_text(p), dihedral_family_1(p)),
            ("dh2", dihedral_family_2_text(p), dihedral_family_2(p)),
        ]
        texts += [
            ("hpj", cyclic_fitting_text(q), cyclic_fitting_map(q)) for q in cyclic_fitting_params(p)
        ]
        for label, text, m in texts:
            reference = map_from_action(regular_action(parse_presentation(text)), label)
            assert reference.order == m.order
            assert standard_table(m.perms) == standard_table(reference.perms)
            built[label] = built.get(label, 0) + 1
    assert built == {"dh1": 25, "dh2": 25, "hpj": 106}


def test_certificate_on_small_presentations():
    # D12 through <a b> (index 2) and through <a> (index 6, a fixes cosets)
    d12 = parse_presentation("gens a b\nrel a^2\nrel b^2\nrel (a b)^6\n")
    assert len(regular_action_through(d12, (0, 1))[0]) == 12
    assert len(regular_action_through(d12, (0,))[0]) == 12
    # the infinite dihedral group: <a b> has index 2 and is infinite
    infinite = parse_presentation("gens a b\nrel a^2\nrel b^2\n")
    with pytest.raises(VerificationError, match="infinite"):
        regular_action_through(infinite, (0, 1))
    # dh1 without s (y t)^(p+1): y t has infinite order
    pres = parse_presentation(presentation_text(("x y s",)))
    with pytest.raises(VerificationError, match="infinite"):
        regular_action_through(pres, (1, 3))


def test_lift_equals_the_regular_action_of_d12():
    # through <a b>, <a> and <b>; a and b fix cosets of <a> and <b>, whose
    # edges are the variables with c = c g, of order 2 in the lattice; also
    # through <(a b)^2>, of index 4, and the trivial <a a>
    d12 = parse_presentation("gens a b\nrel a^2\nrel b^2\nrel (a b)^6\n")
    reference = standard_table(regular_action(d12))
    for w in ((0, 1), (0,), (1,), (0, 1, 0, 1), (0, 0)):
        assert standard_table(regular_action_through(d12, w)) == reference, w
    assert regular_action_through(d12, ()) == regular_action(d12)


def test_lift_combines_the_pivots_by_gcd(monkeypatch):
    # hpj(3,5,4) at p = 19: the lattice of <(s x)(t y)^2> has pivots 5 and
    # 3, so the exponent of w is combined from two coordinates
    q = FamilyParams(3, 5, 4)
    echelon, pivots = families._echelon, []

    def recording(rows, m):
        basis = echelon(rows, m)
        pivots.append([row[j] for j, row in enumerate(basis) if row[j] != 1])
        return basis

    monkeypatch.setattr(families, "_echelon", recording)
    m = cyclic_fitting_map(q)
    assert pivots == [[5, 3]]
    assert equivalence_key(m) == equivalence_key(references.cyclic_fitting_reference(q))
    reference = regular_action(parse_presentation(cyclic_fitting_text(q)))
    assert standard_table(m.perms) == standard_table(reference)


def test_cyclic_fitting_map_matches_its_semidirect_reference():
    # every hpj member with p < 102 against (C_lam x C_kappa) x| V_4; the
    # members of j and lam - j have equal keys
    keys = {}
    for p in filter(is_prime, range(3, 102)):
        for q in cyclic_fitting_params(p):
            keys[q.kappa, q.lam, q.j] = key = equivalence_key(cyclic_fitting_map(q))
            assert key == equivalence_key(references.cyclic_fitting_reference(q)), q
    assert len(keys) == 106
    for (kappa, lam, j), key in keys.items():
        assert keys[kappa, lam, lam - j] == key


def test_valency_eight_map_matches_its_semidirect_reference():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # 9m - 4 is often composite
        for m in range(1, 42, 2):
            reference = references.valency_eight_reference(m)
            assert equivalence_key(valency_eight_map(m)) == equivalence_key(reference), m


def test_certified_families_never_enumerate_the_trivial_subgroup(monkeypatch):
    # families calls regular_action through its own import, load_map
    # through presentations
    import ebrmaps.presentations as presentations_module

    def refuse(*args, **kwargs):
        raise AssertionError("trivial-subgroup enumeration")

    monkeypatch.setattr(presentations_module, "regular_action", refuse)
    monkeypatch.setattr(families, "regular_action", refuse)
    assert dihedral_family_1(997).order == 3992
    # p = 1009 has no valency-eight member
    # (test_valency_eight_map_enumerates_at_most_its_quotient)
    entries = census.classify(1009, "constructive")
    assert {e.family[:3] for e in entries} == {"dh1", "dh2", "hpj"}


_CERTIFICATE_REJECTS = """
import ebrmaps.families as families
from ebrmaps.groups import VerificationError

assert False, "assert statements must be stripped"

def attempt(build):
    try:
        build()
    except VerificationError as exc:
        print(exc)

good_log = families._discrete_log
good_text = families.dihedral_family_1_text
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
    families._discrete_log = bumped(k)
    attempt(lambda: families.dihedral_family_1(5))
families._discrete_log = good_log
print(exponents)
# without s (y t)^(p+1) the presented group is infinite
families.dihedral_family_1_text = lambda p: families.presentation_text(("x y s",))
attempt(lambda: families.dihedral_family_1(5))
families.dihedral_family_1_text = good_text
print(families.dihedral_family_1(5).order)
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
    pres = parse_presentation(dihedral_family_1_text(p))
    good = regular_action_through(pres, (1, 3))
    x, y, s, t = good
    bad = (x, y, s, tuple(t[y[t[h]]] for h in range(len(t))))
    assert _table_fault(CosetTable(good), pres, ()) is None
    assert _table_fault(CosetTable(bad), pres, ()) == "relator does not close"
    one_relator = [Presentation(pres.generator_names, (f,)) for f in pres.relator_forms]
    failing = [q.relators for q in one_relator if _table_fault(CosetTable(bad), q, ())]
    assert failing == [parse_presentation(f"gens x y s t\nrel s (y t)^{p + 1}\n").relators]
