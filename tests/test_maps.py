"""Tests for the map layer: marked quadruples, invariants, flags,
duality/twin operators, semi-edge maps and the map file format."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ebrmaps
import ebrmaps.maps as maps_module
from ebrmaps import census, families
from ebrmaps.census import ATLAS_ORDERS, _constructive_entries, admissible_types, atlas, classify
from ebrmaps.families import chi_minus_2_catalog
from ebrmaps.groups import cyclic, dihedral, direct_product, subgroup_closure, symmetric
from ebrmaps.maps import (
    EdgeBiregularMap,
    MapStructureError,
    NotDistinct,
    NotGenerating,
    NotInvolution,
    PairNotCommuting,
    SemiEdgeMap,
    all_map_quadruples,
    counts,
    delete_semi_edges,
    dual,
    equivalence_key,
    euler_characteristic,
    euler_characteristic_formula,
    flag_structure,
    insert_semi_edges,
    is_fully_regular,
    is_orientable,
    is_self_dual,
    load_map,
    map_file_text,
    map_from_action,
    map_invariants,
    new_map,
    semi_edge_counts,
    semi_edge_type,
    strip_mark_lines,
    twin,
    type_of,
)
from ebrmaps.presentations import parse_presentation
import references
from references import (
    all_map_quadruples_by_scan,
    even_subgroup_index_of_products,
    group_from_presentation,
    index_of_even_subgroup,
    is_fully_regular_by_tables,
    is_map_isomorphic,
    is_self_dual_by_tables,
    relabelled,
    semi_edge_type_dense,
    standard_table,
)

TORUS_LIKE = """\
# single map file used across several tests
gens x y s t
rel x^2
rel y^2
rel s^2
rel t^2
rel (x y)^2
rel (s t)^2
rel (t y)^4
rel (s x)^4
rel x y t s
mark x y s t
"""


def c2_to_the(k):
    g = cyclic(2)
    for _ in range(k - 1):
        g = direct_product(g, cyclic(2))
    return g


def test_new_map_validation_taxonomy():
    from ebrmaps.maps import new_map

    e16 = c2_to_the(4)  # elementary abelian, all 15 non-identity involutions
    # a valid quadruple: four independent generators
    m = new_map(e16, (1, 2, 4, 8))
    assert isinstance(m, EdgeBiregularMap)
    assert m.marks == (1, 2, 4, 8)

    with pytest.raises(NotInvolution) as exc:
        new_map(cyclic(8), (1, 2, 4, 4))  # element 1 has order 8
    assert "x" in str(exc.value)
    with pytest.raises(NotDistinct):
        new_map(e16, (1, 2, 4, 4))
    with pytest.raises(NotGenerating):
        new_map(e16, (1, 2, 4, 7))  # 7 = 1+2+4 lies in the span of the others
    with pytest.raises(MapStructureError):
        new_map(e16, (1, 2, 4))  # wrong arity
    with pytest.raises(MapStructureError):
        new_map(e16, (1, 2, 4, 99))  # out of range

    d8 = dihedral(8)
    # reflections 4 and 5 do not commute in D8 (their product is a quarter turn)
    with pytest.raises(PairNotCommuting) as exc:
        new_map(d8, (4, 5, 2, 6))
    assert "x and y" in str(exc.value)
    # x = half turn and y = reflection commute; s = 5, t = 6 do not
    with pytest.raises(PairNotCommuting) as exc:
        new_map(d8, (2, 4, 5, 6))
    assert "s and t" in str(exc.value)


def test_exception_hierarchy():
    assert issubclass(MapStructureError, ValueError)
    for sub in (NotInvolution, NotDistinct, PairNotCommuting, NotGenerating):
        assert issubclass(sub, MapStructureError)


def test_type_and_counts():
    m = load_map(TORUS_LIKE)
    # relator x y t s means xy = st is central of order 2: order 16 group
    assert m.group.order == 16
    assert type_of(m) == (8, 8)
    assert counts(m) == (2, 8, 2)
    assert euler_characteristic(m) == -4
    assert euler_characteristic_formula(16, 8, 8) == -4


def test_euler_characteristic_formula_is_exact():
    assert euler_characteristic_formula(24, 4, 6) == -2
    assert euler_characteristic_formula(12, 4, 12) == -2
    assert euler_characteristic_formula(8, 4, 8) == -1
    assert euler_characteristic_formula(16, 4, 4) == 0
    # exact rational, never rounded
    assert euler_characteristic_formula(4, 4, 6) == Fraction(-1, 3)


def test_flag_structure():
    m = load_map(TORUS_LIKE)
    fs = flag_structure(m)
    assert fs.num_flags == 2 * m.group.order
    for p in (fs.rho0, fs.rho1, fs.rho2):
        assert sorted(p) == list(range(fs.num_flags))
        assert all(p[p[f]] == f for f in range(fs.num_flags))  # involutions
    # rho0 and rho2 commute flag-wise (they act on opposite ends)
    assert all(fs.rho0[fs.rho2[f]] == fs.rho2[fs.rho0[f]] for f in range(fs.num_flags))


def test_flag_orbits_count_cells():
    maps = [load_map(TORUS_LIKE)]
    d8 = dihedral(8)
    maps += list(all_map_quadruples_by_scan(d8))
    for m in maps:
        fs = flag_structure(m)
        v, e, f = counts(m)
        assert fs.orbit_count((fs.rho1, fs.rho2)) == v
        assert fs.orbit_count((fs.rho0, fs.rho2)) == e
        assert fs.orbit_count((fs.rho0, fs.rho1)) == f
        assert fs.orbit_count((fs.rho0, fs.rho1, fs.rho2)) == 1  # connected


def test_orientability():
    # is_orientable runs both the even-subgroup-index route and the
    # flag-graph-bipartiteness route and asserts internally that they agree
    m = load_map(TORUS_LIKE)
    assert is_orientable(m) is True  # genus-3 orientable surface
    # elementary abelian C2^4 quadruple: chi = 16*(1/4 - 1/2 + 1/4) = 0, torus
    e16 = c2_to_the(4)
    from ebrmaps.maps import new_map

    flat = new_map(e16, (1, 2, 4, 8))
    assert type_of(flat) == (4, 4)
    assert euler_characteristic(flat) == 0
    assert is_orientable(flat) is True


def test_dual_and_twin_are_involutions():
    m = load_map(TORUS_LIKE)
    assert dual(dual(m)).marks == m.marks
    assert twin(twin(m)).marks == m.marks
    k, l = type_of(m)
    assert type_of(dual(m)) == (l, k)
    v, e, f = counts(m)
    assert counts(dual(m)) == (f, e, v)
    # twins swap the two edge orbits but preserve type and counts
    assert type_of(twin(m)) == (k, l)
    assert counts(twin(m)) == (v, e, f)
    assert euler_characteristic(dual(m)) == euler_characteristic(m)
    assert euler_characteristic(twin(m)) == euler_characteristic(m)


def test_isomorphism_and_equivalence():
    m = load_map(TORUS_LIKE)
    assert is_map_isomorphic(m, m)
    assert equivalence_key(m) == equivalence_key(dual(m))
    assert equivalence_key(m) == equivalence_key(twin(m))
    assert equivalence_key(m) == equivalence_key(dual(twin(m)))
    # a map of different type on a different group is not equivalent
    e16 = c2_to_the(4)
    from ebrmaps.maps import new_map

    other = new_map(e16, (1, 2, 4, 8))
    assert not is_map_isomorphic(m, other)
    assert equivalence_key(m) != equivalence_key(other)


def test_euler_characteristic_formula_integer_or_fraction():
    # an int whenever the value is integral, as in every chi test of the
    # search; a Fraction otherwise
    value = euler_characteristic_formula(24, 4, 6)
    assert type(value) is int and value == -2
    assert euler_characteristic_formula(6, 4, 6) == Fraction(-1, 2)
    for n in (4, 8, 12, 24, 36, 60):
        for k in (2, 4, 6, 8, 12):
            for l in (4, 6, 10):
                exact = n * (Fraction(1, k) - Fraction(1, 2) + Fraction(1, l))
                assert euler_characteristic_formula(n, k, l) == exact


def _small_quadruples():
    """Every quadruple on the groups of order 12 and on D16, the chi = -2
    ones included: 280 maps in 15 isomorphism classes."""
    groups = list(atlas(12)) + [dihedral(16)]
    return [m for g in groups for m in all_map_quadruples_by_scan(g)]


def _assert_key_decides(maps, key, related):
    """key(a) == key(b) exactly when related(a, b), for an equivalence
    relation ``related``: every class member is related to the class's
    first map, and the first maps are pairwise unrelated (transitivity
    covers the remaining pairs)."""
    classes = {}
    for m in maps:
        classes.setdefault(key(m), []).append(m)
    assert len(classes) > 1
    for first, *rest in classes.values():
        for m in rest:
            assert related(first, m), (first.marks, m.marks)
    firsts = [members[0] for members in classes.values()]
    for i, a in enumerate(firsts):
        for b in firsts[i + 1 :]:
            assert not related(a, b), (a.marks, b.marks)


def test_standard_table_decides_map_isomorphism():
    _assert_key_decides(
        _small_quadruples(), lambda m: standard_table(m.perms), is_map_isomorphic
    )


def test_equivalence_key_decides_equivalence_up_to_duality():
    def four_variants(a, b):
        return any(is_map_isomorphic(a, v) for v in (b, dual(b), twin(b), dual(twin(b))))

    _assert_key_decides(_small_quadruples(), equivalence_key, four_variants)


def _relabelled(m, rng):
    """The same map with H renumbered by a random permutation."""
    group, perm = relabelled(m.group, rng)
    return new_map(group, tuple(perm[z] for z in m.marks))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_equivalence_key_ignores_relabelling(seed):
    rng = random.Random(seed)
    for m in _small_quadruples() + [load_map(TORUS_LIKE)]:
        other = _relabelled(m, rng)
        assert standard_table(other.perms) == standard_table(m.perms)
        assert equivalence_key(other) == equivalence_key(m)


def _dense_standard_table(group, marks):
    """The standardized table read off the multiplication table."""
    number = {0: 0}
    elements = [0]
    table = []
    for h in elements:
        for z in marks:
            g = group.mul[h][z]
            if g not in number:
                number[g] = len(elements)
                elements.append(g)
            table.append(number[g])
    return tuple(table)


def _dense_key(m):
    x, y, s, t = m.marks
    orderings = ((x, y, s, t), (y, x, t, s), (s, t, x, y), (t, s, y, x))
    return min(_dense_standard_table(m.group, marks) for marks in orderings)


def test_permutation_invariants_match_dense_references():
    # every invariant computed from the four mark permutations equals its
    # reference computed on the dense multiplication table
    maps = _small_quadruples() + chi_minus_2_catalog()
    for m in maps:
        g = m.group
        x, y, s, t = m.marks
        k = 2 * g.element_orders[g.mul[t][y]]
        l = 2 * g.element_orders[g.mul[s][x]]
        assert type_of(m) == (k, l)
        assert counts(m) == (g.order // k, g.order // 2, g.order // l)
        assert is_orientable(m) == (index_of_even_subgroup((m.group, m.marks)) == 2)
        assert is_fully_regular(m) == is_map_isomorphic(m, twin(m))
        assert is_self_dual(m) == is_map_isomorphic(m, dual(m))
        assert equivalence_key(m) == _dense_key(m)


def test_short_cut_invariants_match_their_full_references():
    # the lockstep table comparison stops at the first row that differs and
    # the even subgroup is generated by x*y, x*s, x*t only; both must give
    # the answers of the full tables and of all twelve products, on maps
    # built by search (dense groups) and by the family constructors
    catalogs = [
        (2, "exhaustive"),
        (2, "constructive"),
        (3, "exhaustive"),
        (3, "constructive"),
        (401, "constructive"),
    ]
    maps = [entry.map for p, profile in catalogs for entry in classify(p, profile)]
    seen = set()
    for m in maps:
        answers = (is_fully_regular(m), is_self_dual(m), maps_module._even_subgroup_index(m))
        assert answers == (
            is_fully_regular_by_tables(m),
            is_self_dual_by_tables(m),
            even_subgroup_index_of_products(m),
        )
        seen.update(enumerate(answers))
    # each answer is met both ways
    assert seen == {(0, True), (0, False), (1, True), (1, False), (2, 1), (2, 2)}


def test_map_from_presentation_holds_only_the_action(monkeypatch):
    m = load_map(TORUS_LIKE)
    assert "group" not in vars(m)  # no table until one is asked for
    assert m.order == 16 and len(m.perms) == 4
    assert m.marks == tuple(perm[0] for perm in m.perms)
    group, marks = group_from_presentation(parse_presentation(strip_mark_lines(TORUS_LIKE)))
    assert m.group.mul == group.mul
    assert m.marks == marks
    # a map found on a dense group rebuilds that group's table exactly: every
    # class kept over the p = 2 atlas orders and in the groups searched by
    # cyclic_by_dihedral_probe(5, 6), four semidirect products of order 60
    enumerate_maps = census.enumerate_maps
    searched = [
        (g, enumerate_maps(g, want_chi=-2))
        for n in sorted({a.n for a in admissible_types(2)})
        for g in atlas(n)
    ]

    def recording(group, want_chi=None):
        searched.append((group, enumerate_maps(group, want_chi)))
        return searched[-1][1]

    monkeypatch.setattr(census, "enumerate_maps", recording)
    families.cyclic_by_dihedral_probe(5, 6)
    assert [g.name for g, _ in searched[-4:]] == ["C5:D12"] * 4
    kept = [(g, m) for g, found in searched for m in found.values()]
    assert len(kept) == 12 + 28  # 12 at p = 2, 28 in the probe's groups
    for g, m in kept:
        assert m.group.mul == g.mul, g.name


def test_map_from_action_validates():
    m = load_map(TORUS_LIKE)
    px, py, ps, pt = m.perms
    with pytest.raises(NotInvolution):
        map_from_action((tuple(range(16)), py, ps, pt))
    with pytest.raises(NotDistinct):
        map_from_action((px, px, ps, pt))
    with pytest.raises(PairNotCommuting):
        map_from_action((px, ps, py, pt))  # x and s generate a group of order 8
    with pytest.raises(MapStructureError):
        map_from_action((px, py, ps))


def test_map_from_action_rejects_malformed_permutations():
    d8 = new_map(dihedral(8), (4, 6, 5, 7))
    assert map_from_action(d8.perms) == d8
    px, py, ps, pt = d8.perms
    faults = [
        ((px, py, ps, pt + (8, 9)), "mark permutations have different lengths"),
        (((5, 0), (1, 0), (1, 0), (1, 0)), r"mark x has an entry outside range\(\|H\|\)"),
        (((), (), (), ()), "mark permutations are empty"),
    ]
    for perms, message in faults:
        with pytest.raises(MapStructureError, match=f"^{message}$"):
            map_from_action(perms)


def test_fully_regular_and_self_dual_flags():
    m = load_map(TORUS_LIKE)
    assert is_fully_regular(m) == is_map_isomorphic(m, twin(m))
    assert is_self_dual(m) == is_map_isomorphic(m, dual(m))
    # the C2^4 map is abelian and symmetric in all four marks
    from ebrmaps.maps import new_map

    flat = new_map(c2_to_the(4), (1, 2, 4, 8))
    assert is_fully_regular(flat)
    assert is_self_dual(flat)


def _columns(group, elements):
    """The permutations h -> h*z of the group's table, one per element z."""
    return tuple(tuple(row[z] for row in group.mul) for z in elements)


# the transpositions of points 0,1 and 1,2 and 2,3 of S4
TETRAHEDRON = ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))


def _s4_columns(*images):
    """The columns of symmetric(4)'s table for the permutations of 0..3
    with the given images."""
    s4 = symmetric(4)
    index = {p: i for i, p in enumerate(s4.perms)}
    return _columns(s4, [index[p] for p in images])


def test_semi_edge_tetrahedron():
    triple = r0, r1, r2 = _s4_columns(*TETRAHEDRON)
    sm = insert_semi_edges(triple)
    assert sm == SemiEdgeMap((r0, r2, r1))
    # inserting a semi-edge into every corner of the tetrahedron doubles
    # both the valency and the face length
    assert semi_edge_type(sm) == (6, 6)
    stats = semi_edge_counts(sm)
    assert stats == {
        "vertices": 4,
        "edges": 6,
        "semi_edges": 12,
        "faces": 4,
        "flags": 48,
        "chi": 2,
    }
    assert delete_semi_edges(sm) == triple


def test_semi_edge_validation():
    r0, r1, r2, double, four_cycle = _s4_columns(*TETRAHEDRON, (1, 0, 3, 2), (1, 2, 3, 0))
    # a duplicated mark is the semi-star degeneracy
    with pytest.raises(NotDistinct):
        insert_semi_edges(_columns(dihedral(8), (4, 5, 4)))
    # adjacent transpositions in the r0/r2 slots do not commute
    with pytest.raises(PairNotCommuting):
        insert_semi_edges((r0, r2, r1))
    with pytest.raises(MapStructureError, match=r"^expected 3 marks \(r0, r1, r2\)$"):
        insert_semi_edges((r0, four_cycle))
    with pytest.raises(NotInvolution, match="^mark r1 is not an involution$"):
        insert_semi_edges((r0, four_cycle, r2))
    # (0 1), (0 1)(2 3) and (2 3) generate a Klein four subgroup of S4
    with pytest.raises(NotGenerating):
        insert_semi_edges((r0, double, r2))
    with pytest.raises(MapStructureError, match=r"^mark r1 has an entry outside range\(\|H\|\)$"):
        insert_semi_edges((r0, (24,) + r1[1:], r2))
    with pytest.raises(MapStructureError, match="^mark permutations have different lengths$"):
        insert_semi_edges((r0, r1, r2 + (24,)))


def test_semi_edge_type_matches_the_dense_reference():
    # every triple of involutions of S4 and of S4 x C2, as table columns: the
    # triples insert_semi_edges accepts are those a dense check accepts, and
    # the type read from the permutations is the one read from the table
    for group in (symmetric(4), direct_product(symmetric(4), cyclic(2))):
        accepted = 0
        invs = group.involutions()
        for r0, r1, r2 in itertools.product(invs, repeat=3):
            valid = (
                len({r0, r1, r2}) == 3
                and group.mul[r0][r2] == group.mul[r2][r0]
                and len(subgroup_closure(group, (r0, r1, r2))) == group.order
            )
            try:
                sm = insert_semi_edges(_columns(group, (r0, r1, r2)))
            except MapStructureError:
                assert not valid, (group.name, r0, r1, r2)
                continue
            assert valid, (group.name, r0, r1, r2)
            assert semi_edge_type(sm) == semi_edge_type_dense(group, (r0, r2, r1))
            accepted += 1
        assert accepted, group.name


def test_load_map_round_trip():
    m = load_map(TORUS_LIKE)
    rebuilt = load_map(map_file_text(strip_mark_lines(TORUS_LIKE)))
    assert is_map_isomorphic(m, rebuilt)


def test_load_map_mark_line_errors():
    body = strip_mark_lines(TORUS_LIKE)
    with pytest.raises(MapStructureError):
        load_map(body)  # no mark line at all
    with pytest.raises(MapStructureError):
        load_map(body + "mark x y s\n")  # wrong arity
    with pytest.raises(MapStructureError):
        load_map(body + "mark x y s q\n")  # unknown generator
    with pytest.raises(MapStructureError):
        load_map(body + "mark x y s t\nmark x y s t\n")  # duplicate mark line


def test_mark_line_permutes_roles():
    # marking in a different order builds the dual/twin relatives
    body = strip_mark_lines(TORUS_LIKE)
    m = load_map(body + "mark x y s t\n")
    md = load_map(body + "mark y x t s\n")
    assert is_map_isomorphic(dual(m), md)
    mt = load_map(body + "mark s t x y\n")
    assert is_map_isomorphic(twin(m), mt)


def test_strip_mark_lines():
    stripped = strip_mark_lines(TORUS_LIKE)
    assert "mark" not in stripped
    # mark lines are blanked in place so parse errors keep their coordinates
    expected = [
        "" if line.startswith("mark") else line for line in TORUS_LIKE.splitlines()
    ]
    assert stripped.splitlines() == "\n".join(expected).splitlines()


def test_all_map_quadruples():
    # a group with only three involutions carries no quadruple
    v4 = c2_to_the(2)
    assert list(all_map_quadruples(v4)) == []
    # D8 carries valid quadruples; every yield passes full validation
    from ebrmaps.maps import new_map

    d8 = dihedral(8)
    found = list(all_map_quadruples(d8))
    assert found
    for m in found:
        new_map(d8, m.marks)  # must not raise
    # the chi filter is equivalent to post-filtering
    want = [m for m in found if euler_characteristic(m) == -2]
    got = list(all_map_quadruples(d8, want_chi=-2))
    assert [m.marks for m in got] == [m.marks for m in want]


def _searched_orders():
    """(chi, order) for every atlas order that classify --p 2/3 and verify
    exclusions --p 5/7/11 search, and for chi = -1 on orders 8 and 12."""
    out = [(-p, n) for p in (2, 3) for n in sorted({a.n for a in admissible_types(p)})]
    for p in (5, 7, 11):
        orders = {a.n for a in admissible_types(p) if a.n % p == 0}
        out += [(-p, n) for n in sorted(orders) if n in ATLAS_ORDERS]
    return out + [(-1, 8), (-1, 12)]


def test_search_equals_the_scan(monkeypatch):
    # up to equivalence: the search yields, in scan order, a part of the
    # scan that holds the first quadruple of every class, and it generates
    # no more subgroups than the scan does
    closures = [0]
    counted = maps_module.subgroup_closure

    def closure(*args):
        closures[0] += 1
        return counted(*args)

    monkeypatch.setattr(maps_module, "subgroup_closure", closure)
    monkeypatch.setattr(references, "subgroup_closure", closure)
    cases = _searched_orders() + [(None, n) for n in ATLAS_ORDERS if n <= 16]
    for chi, n in cases:
        for g in atlas(n):
            closures[0] = 0
            got = [m.marks for m in all_map_quadruples(g, chi)]
            checks = closures[0]
            closures[0] = 0
            scan = list(all_map_quadruples_by_scan(g, chi))
            assert 0 < checks <= closures[0] or not scan, (chi, g.name)
            firsts = {}
            for m in scan:
                firsts.setdefault(equivalence_key(m), m.marks)
            kept = set(got)
            assert got == [m.marks for m in scan if m.marks in kept], (chi, g.name)
            assert set(firsts.values()) <= kept, (chi, g.name)


_TWO_VALENCIES = """
from ebrmaps import maps
from ebrmaps.groups import dihedral

assert False, "assert statements must be stripped"
maps.euler_characteristic_formula = lambda order, k, l: -2
list(maps.all_map_quadruples(dihedral(8), -2))
"""


def test_two_vertex_valencies_for_one_face_valency_raise_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(ebrmaps.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _TWO_VALENCIES],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ebrmaps.groups.VerificationError: face valency 2 gives chi = -2")


def test_chi_search_equals_post_filtering_on_random_groups():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    groups = [g for n in ATLAS_ORDERS if n <= 24 for g in atlas(n)]
    unfiltered = {}

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from(groups), st.integers(-5, -1))
    def check(group, chi):
        if group.name not in unfiltered:
            unfiltered[group.name] = list(all_map_quadruples(group))
        want = [m.marks for m in unfiltered[group.name] if euler_characteristic(m) == chi]
        assert [m.marks for m in all_map_quadruples(group, chi)] == want

    check()


def test_equivalence_key_ignores_random_relabelling():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    maps_drawn = _small_quadruples() + [load_map(TORUS_LIKE)]

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from(maps_drawn), st.randoms(use_true_random=False))
    def check(m, rng):
        assert equivalence_key(_relabelled(m, rng)) == equivalence_key(m)

    check()


def test_equivalence_key_is_the_least_full_table():
    def least_full_table(m):
        x, y, s, t = m.perms
        orderings = ((x, y, s, t), (y, x, t, s), (s, t, x, y), (t, s, y, x))
        return min(standard_table(perms) for perms in orderings)

    # every quadruple that classify --p 2 and --p 3 search
    found = [
        m
        for chi, n in _searched_orders()
        if chi in (-2, -3)
        for g in atlas(n)
        for m in all_map_quadruples_by_scan(g, chi)
    ]
    assert len(found) == 2820
    for m in found + [entry.map for entry in _constructive_entries(401).values()]:
        assert equivalence_key(m) == least_full_table(m)


def test_map_invariants_keys_and_values():
    m = load_map(TORUS_LIKE)
    inv = map_invariants(m)
    assert list(inv.keys()) == [
        "type",
        "vertices",
        "edges",
        "faces",
        "chi",
        "orientable",
        "fully_regular",
        "self_dual",
    ]
    assert inv["type"] == [8, 8]
    assert (inv["vertices"], inv["edges"], inv["faces"]) == (2, 8, 2)
    assert inv["chi"] == -4
    assert isinstance(inv["orientable"], bool)
