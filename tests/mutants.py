"""Mutation checks: each mutant plants one fault, and its tests must catch it.

Run from anywhere, with pytest installed:

    python3 tests/mutants.py

The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` (for the
pytest settings) to a temporary directory.  The copy of ``tests/`` is
needed because some tests run the ``src/`` that sits beside their own file.
It applies one mutant at a time to the copy and runs each of that mutant's
tests there, one pytest process per test id, with ``-x -q -p
no:cacheprovider``.  A mutant is killed when every one of its tests fails
within ``TIMEOUT`` seconds.  The runner exits 1 when a mutant survives,
when a test errors or runs out of time instead of failing, or when a
mutant's old text does not occur exactly once in its file, so that a stale
mutant fails loudly; otherwise it exits 0.  A mutant of the orbit walk or
of ``subgroup_closure`` makes ``greedy_generators`` loop for ever, so such
a mutant names tests that build no split extension.

pytest does not collect this file: its name does not start with ``test_``.
A change that adds a check adds the mutant that the check kills.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 60  # seconds per test id; each named test takes under 1 s unmutated


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids, each of which must fail


MUTANTS = (
    Mutant(
        "the orbit walk ignores the last permutation",
        "src/ebrmaps/groups.py",
        "        for perm in perms:\n            g = perm[h]\n            if g not in seen:",
        "        for perm in perms[:-1]:\n            g = perm[h]\n            if g not in seen:",
        (
            "tests/test_maps.py::test_semi_edge_type_matches_the_dense_reference",
            "tests/test_groups.py::test_subgroup_closure",
        ),
    ),
    Mutant(
        "subgroup_closure reads only the first generator's column",
        "src/ebrmaps/groups.py",
        "for z in dict.fromkeys(gens)]",
        "for z in list(dict.fromkeys(gens))[:1]]",
        (
            "tests/test_groups.py::test_subgroup_closure",
            "tests/test_presentations.py::test_coset_table_marks_generate",
        ),
    ),
    Mutant(
        "_check_marks skips the commutation of its pairs",
        "src/ebrmaps/maps.py",
        "    for i, j in pairs:",
        "    for i, j in pairs[:0]:",
        (
            "tests/test_maps.py::test_map_from_action_validates",
            "tests/test_maps.py::test_semi_edge_validation",
        ),
    ),
    Mutant(
        "_check_marks checks the first three marks only for distinctness",
        "src/ebrmaps/maps.py",
        "    if len(set(marks)) != len(marks):",
        "    if len(set(marks[:3])) != len(marks[:3]):",
        ("tests/test_maps.py::test_new_map_validation_taxonomy",),
    ),
    Mutant(
        "export emits each edge from its larger end",
        "src/ebrmaps/cli.py",
        "        if h < other\n",
        "        if h > other\n",
        (
            "tests/test_cli.py::test_export_cayley_dot",
            "tests/test_cli.py::test_export_output_unchanged",
        ),
    ),
    Mutant(
        "the flag graph is 2-colored along rho0 and rho1 only",
        "src/ebrmaps/maps.py",
        "            for p in rhos:",
        "            for p in rhos[:2]:",
        ("tests/test_maps.py::test_permutation_invariants_match_dense_references",),
    ),
    Mutant(
        "j^2 = 1 (mod lam) has only the roots 1 and lam - 1",
        "src/ebrmaps/families.py",
        "    return sorted(1 + u * (-2 * pow(u, -1, lam // u) % (lam // u)) for u in splits)",
        "    return [1, lam - 1]",
        ("tests/test_families.py::test_cyclic_fitting_params_equal_the_scan_of_every_b_and_j",),
    ),
    Mutant(
        "the roster has no hp member",
        "src/ebrmaps/families.py",
        "    if (p + 4) % 9 == 0:\n        out.append(hp((p + 4) // 9))\n",
        "",
        ("tests/test_families.py::test_members_roster_branches",),
    ),
    Mutant(
        "hpj accepts kappa and lam with a common factor",
        "src/ebrmaps/families.py",
        '    if math.gcd(kappa, lam) != 1:\n        raise ValueError("kappa and lambda must be coprime")\n',
        "",
        ("tests/test_families.py::test_family_params_validation",),
    ),
    Mutant(
        "hpj computes the exponent a from j + 1",
        "src/ebrmaps/families.py",
        "    a = (j - 1) * (lam + 1) // 2 % lam",
        "    a = (j + 1) * (lam + 1) // 2 % lam",
        (
            "tests/test_families.py::test_family_params_derived_values",
            "tests/test_families.py::test_cyclic_fitting_map_matches_its_semidirect_reference",
        ),
    ),
    Mutant(
        "cyclic_fitting_params takes every odd b, not only b = 1 (mod 4)",
        "src/ebrmaps/families.py",
        "        if b % 4 == 1:",
        "        if b % 2 == 1:",
        (
            "tests/test_families.py::test_cyclic_fitting_params_small_primes",
            "tests/test_families.py::test_cyclic_fitting_params_equal_the_scan_of_every_b_and_j",
        ),
    ),
    Mutant(
        "admissible_types returns its rows unsorted",
        "src/ebrmaps/census.py",
        "    return sorted(out)\n",
        "    return out\n",
        (
            "tests/test_census.py::test_admissible_types_p2",
            "tests/test_census.py::test_admissible_types_match_the_scan",
        ),
    ),
    Mutant(
        "insert_semi_edges returns the triple in its input order",
        "src/ebrmaps/maps.py",
        "    return r0, r2, r1\n",
        "    return r0, r1, r2\n",
        (
            "tests/test_maps.py::test_semi_edge_tetrahedron",
            "tests/test_maps.py::test_semi_edge_type_matches_the_dense_reference",
        ),
    ),
    Mutant(
        "dual keeps s and t in place",
        "src/ebrmaps/maps.py",
        "    return y, x, t, s\n",
        "    return y, x, s, t\n",
        (
            "tests/test_maps.py::test_equivalence_key_decides_equivalence_up_to_duality",
            "tests/test_cli.py::test_invariants_self_dual_map",
        ),
    ),
    Mutant(
        "twin swaps x and y as it swaps the sides",
        "src/ebrmaps/maps.py",
        "    return s, t, x, y\n",
        "    return s, t, y, x\n",
        (
            "tests/test_maps.py::test_dual_and_twin_are_involutions",
            "tests/test_census.py::test_classify_p2",
        ),
    ),
    Mutant(
        "catalog entries of equal order and type keep their search order",
        "src/ebrmaps/census.py",
        "(*_order_and_type(e[0]), e[1].label)",
        "_order_and_type(e[0])",
        (
            "tests/test_census.py::test_classify_p2",
            "tests/test_acceptance.py::test_criterion_1_chi_minus_2_classification",
        ),
    ),
    Mutant(
        "the solved vertex valency skips its divisibility test",
        "src/ebrmaps/maps.py",
        " and 2 * n * l % den == 0 and ",
        " and ",
        (
            "tests/test_maps.py::test_search_equals_the_scan",
            "tests/test_census.py::test_classify_p3_exhaustive_matches_constructive",
        ),
    ),
)


def _run(test: str, copy: Path) -> int | str:
    """pytest's exit code for one test id on the copy: 1 when it fails."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test]
    try:
        run = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return f"no result after {TIMEOUT} s"
    return run.returncode


def main() -> int:
    faults = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        for mutant in MUTANTS:
            path = copy / mutant.file
            text = path.read_text(encoding="utf-8")
            count = text.count(mutant.old)
            if count != 1:
                print(f"STALE     {mutant.name}: old text occurs {count} times in {mutant.file}", flush=True)
                faults += 1
                continue
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                codes = {test: _run(test, copy) for test in mutant.tests}
            finally:
                path.write_text(text, encoding="utf-8")
            passed = [test for test, code in codes.items() if code == 0]
            errors = [test for test, code in codes.items() if code not in (0, 1)]
            if passed or errors:
                faults += 1
                for test in passed:
                    print(f"SURVIVED  {mutant.name}: {test} passes", flush=True)
                for test in errors:
                    print(f"ERROR     {mutant.name}: {test} gives {codes[test]}", flush=True)
            else:
                print(f"killed    {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - faults} of {len(MUTANTS)} mutants killed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
