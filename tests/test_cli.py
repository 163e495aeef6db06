"""End-to-end tests of the command line interface, invoked in-process via
main(argv).  Exit codes: 0 success/PASS, 1 verification FAIL, 2 bad input,
3 coset capacity exceeded."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ebrmaps import census, families
from ebrmaps.cli import _FAMILY_FLAGS, _PROBE_GRID, main
from ebrmaps.groups import VerificationError
from ebrmaps.maps import load_map, map_file_text
from ebrmaps.presentations import MAX_NESTING
from references import group_from_action, marks

TRIANGLE_237 = """\
gens a b c
rel a^2
rel b^2
rel c^2
rel (a b)^2
rel (b c)^3
rel (a c)^7
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- a tiny structural checker for DOT output (no graphviz dependency) ----

_DOT_NODE = re.compile(r"^  (\d+);$")
_DOT_EDGE = re.compile(r'^  (\d+) -- (\d+) \[label="(\w+)", style="(\w+)"\];$')


def parse_dot(text: str):
    lines = text.splitlines()
    assert lines[0].startswith("graph ") and lines[0].endswith(" {")
    assert lines[1] == "  node [shape=circle];"
    assert lines[-1] == "}"
    nodes, edges = [], []
    for line in lines[2:-1]:
        m = _DOT_NODE.match(line)
        if m:
            nodes.append(int(m.group(1)))
            continue
        m = _DOT_EDGE.match(line)
        assert m, f"unrecognized DOT line: {line!r}"
        edges.append((int(m.group(1)), int(m.group(2)), m.group(3), m.group(4)))
    return nodes, edges


# --- order ----------------------------------------------------------------


def test_order_of_presentation(tmp_path, capsys):
    f = tmp_path / "d12.txt"
    f.write_text("gens a b\nrel a^2\nrel b^2\nrel (a b)^6\n")
    code, out, _ = run(capsys, "order", str(f))
    assert code == 0
    assert out.strip() == "12"


def test_order_ignores_mark_line(tmp_path, capsys):
    f = tmp_path / "h3.map"
    f.write_text(map_file_text(families.h3().text))
    code, out, _ = run(capsys, "order", str(f))
    assert code == 0
    assert out.strip() == "36"


def test_mark_line_after_a_tab(tmp_path, capsys):
    # "mark\tx y s t" is a mark line for every command that reads map files
    f = tmp_path / "h3.map"
    text = map_file_text(families.h3().text)
    f.write_text(text.replace("mark ", "mark\t"))
    assert "mark\tx y s t" in f.read_text()
    code, out, _ = run(capsys, "order", str(f))
    assert (code, out) == (0, "36\n")
    code, out, err = run(capsys, "invariants", str(f))
    assert (code, err) == (0, "")
    assert json.loads(out)["type"] == [4, 6]
    code, out, err = run(capsys, "export", "cayley", str(f))
    assert (code, err) == (0, "")
    assert parse_dot(out)[0] == list(range(36))


def test_order_parse_error_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("gens a b\nrel a q\n")
    code, _, err = run(capsys, "order", str(f))
    assert code == 2
    assert "error:" in err


def test_missing_file_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "order", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error:" in err


def test_order_rejects_overlong_relator_exit_2(tmp_path, capsys):
    # 2 * 10^8 letters: rejected by the parser before the power is expanded
    f = tmp_path / "huge.txt"
    f.write_text("gens x y\nrel x^2\nrel y^2\nrel (x y)^100000000\n")
    code, out, err = run(capsys, "order", str(f))
    assert code == 2
    assert out == ""
    assert "line 4" in err and "200000000 letters" in err


def test_order_rejects_deeply_nested_relator_exit_2(tmp_path, capsys):
    # 3,000 nested powers would exhaust the parser's recursion; the bracket
    # that goes one level past MAX_NESTING is reported instead
    f = tmp_path / "nested.txt"
    f.write_text("gens x y\nrel " + "(" * 3000 + "x" + ")^1" * 3000 + "\n")
    code, out, err = run(capsys, "order", str(f))
    assert code == 2
    assert out == ""
    column = len("rel ") + MAX_NESTING + 1
    assert err.startswith(f"error: line 2, column {column}: parentheses nest more than")


def test_capacity_exceeded_exit_3(tmp_path, capsys):
    f = tmp_path / "hyperbolic.txt"
    f.write_text(TRIANGLE_237)
    code, _, err = run(capsys, "order", str(f), "--max-cosets", "300")
    assert code == 3
    assert "capacity" in err


def test_max_cosets_is_accepted_only_where_it_is_honoured(capsys):
    # classify and verify take no capacity bound, so they reject the flag
    for argv in (["classify", "--p", "3"], ["verify", "exclusions", "--p", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-cosets", "10"])
        assert exc.value.code == 2
        assert "--max-cosets" in capsys.readouterr().err
    code, out, err = run(capsys, "construct", "--family", "dh1", "--p", "101", "--max-cosets", "10")
    assert (code, out, err) == (3, "", "error: coset capacity 10 exceeded\n")


@pytest.mark.parametrize("bound", ["-5", "0"])
@pytest.mark.parametrize(
    "argv",
    [
        ["order", "{file}"],
        ["invariants", "{file}"],
        ["construct", "--family", "dh1", "--p", "3"],
        ["export", "cayley", "{file}"],
    ],
)
def test_max_cosets_below_one_is_an_input_error(tmp_path, capsys, argv, bound):
    # no enumeration can meet such a bound, so it is rejected at parse time
    f = tmp_path / "h3.map"
    f.write_text(map_file_text(families.h3().text))
    with pytest.raises(SystemExit) as exc:
        main([arg.format(file=f) for arg in argv] + ["--max-cosets", bound])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --max-cosets: must be a positive integer, got {bound}" in err


def test_max_cosets_of_one_is_a_resource_limit(capsys):
    # the least bound that parses still fails as a resource limit
    code, out, err = run(capsys, "construct", "--family", "dh1", "--p", "3", "--max-cosets", "1")
    assert (code, out, err) == (3, "", "error: coset capacity 1 exceeded\n")


@pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]])
def test_help_has_one_width_whatever_the_terminal(monkeypatch, capsys, argv):
    # help is formatted at 78 columns, argparse's width with no terminal,
    # so $COLUMNS changes no byte of it
    texts = []
    for columns in ("40", "200", None):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0].startswith("usage: ebrmaps")
    assert texts[0] == texts[1] == texts[2]


# --- invariants -----------------------------------------------------------


def test_invariants_self_dual_map(tmp_path, capsys):
    f = tmp_path / "m3.map"
    f.write_text(map_file_text(families.chi2(3).text))
    code, out, _ = run(capsys, "invariants", str(f))
    assert code == 0
    inv = json.loads(out)
    assert inv["type"] == [6, 6]
    assert inv["chi"] == -2
    assert inv["self_dual"] is True
    assert inv["orientable"] is True
    assert inv["fully_regular"] is True
    assert list(inv.keys()) == [
        "type", "vertices", "edges", "faces", "chi",
        "orientable", "fully_regular", "self_dual",
    ]


def test_invariants_exceptional_map(tmp_path, capsys):
    f = tmp_path / "h3.map"
    f.write_text(map_file_text(families.h3().text))
    code, out, _ = run(capsys, "invariants", str(f))
    assert code == 0
    inv = json.loads(out)
    assert inv["type"] == [4, 6]
    assert (inv["vertices"], inv["edges"], inv["faces"]) == (9, 18, 6)
    assert inv["chi"] == -3
    assert inv["fully_regular"] is True
    assert inv["orientable"] is False


def test_invariants_rejects_bad_quadruple(tmp_path, capsys):
    # x = s collapses the quadruple: distinctness fails at map construction
    f = tmp_path / "degenerate.map"
    text = families.presentation_text(("x s", "(t y)^4", "(s x)^2"))
    f.write_text(map_file_text(text))
    code, _, err = run(capsys, "invariants", str(f))
    assert code == 2
    assert "error:" in err


# --- construct ------------------------------------------------------------


def test_construct_families_round_trip(tmp_path, capsys):
    cases = [
        (("--family", "dh1", "--p", "3"), 16),
        (("--family", "dh2", "--p", "3"), 20),
        (("--family", "hpj", "--kappa", "1", "--lambda", "5", "--j", "4"), 20),
        (("--family", "hp", "--m", "1"), 24),
        (("--family", "h3"), 36),
        (("--family", "chi2", "--index", "7"), 16),
    ]
    for extra, order in cases:
        out_file = tmp_path / ("out-" + extra[1] + ".map")
        code = main(["construct", *extra, "--out", str(out_file)])
        assert code == 0
        m = load_map(out_file.read_text())
        assert group_from_action(m, extra[1]).order == order


def test_construct_requires_family_parameters(capsys):
    code, _, err = run(capsys, "construct", "--family", "dh1")
    assert code == 2
    assert "--p" in err
    code, _, err = run(capsys, "construct", "--family", "hpj", "--kappa", "1")
    assert code == 2


def test_construct_rejects_flags_its_family_does_not_take(capsys):
    code, out, err = run(capsys, "construct", "--family", "h3", "--p", "5")
    assert (code, out, err) == (2, "", "error: --family h3 takes no --p\n")
    code, out, err = run(
        capsys, "construct", "--family", "dh1", "--p", "5", "--m", "3", "--index", "2"
    )
    assert (code, out, err) == (2, "", "error: --family dh1 takes no --m\n")
    # a missing flag is reported before a foreign one
    code, out, err = run(capsys, "construct", "--family", "hpj", "--kappa", "1", "--p", "3")
    assert (code, out, err) == (2, "", "error: --family hpj requires --lambda\n")
    values = {"p": "3", "kappa": "1", "lambda": "5", "j": "4", "m": "1", "index": "1"}
    for family, flags in _FAMILY_FLAGS.items():
        given = [arg for flag in flags for arg in (f"--{flag}", values[flag])]
        for foreign in values.keys() - set(flags):
            argv = ["construct", "--family", family, *given, f"--{foreign}", values[foreign]]
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", f"error: --family {family} takes no --{foreign}\n")


def test_construct_warns_when_minus_chi_is_not_prime(capsys):
    # hpj(1,27,1) has p = 2*27 - 2 - 27 = 25, hp(9) has 9*9 - 4 = 77
    for argv, minus_chi in (
        (("--family", "hpj", "--kappa", "1", "--lambda", "27", "--j", "1"), 25),
        (("--family", "hp", "--m", "9"), 77),
    ):
        with pytest.warns(UserWarning, match=f"-chi = {minus_chi} is not prime"):
            code, out, _ = run(capsys, "construct", *argv)
        assert code == 0
        assert len(load_map(out)[0]) in (108, 216)


def test_construct_warning_is_one_line_on_stderr():
    # a fresh interpreter shows warnings its default way, which would name
    # the install path and the source line; the CLI shows one line
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "ebrmaps.cli", "construct", "--family", "hp", "--m", "9"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == (
        "warning: -chi = 77 is not prime; the map exists but its Euler"
        " characteristic is not minus a prime\n"
    )
    assert len(load_map(proc.stdout)[0]) == 216


def test_construct_rejects_invalid_parameters(capsys):
    code, _, err = run(capsys, "construct", "--family", "dh1", "--p", "4")
    assert code == 2
    code, _, err = run(
        capsys, "construct", "--family", "hpj",
        "--kappa", "1", "--lambda", "5", "--j", "2",
    )
    assert code == 2
    code, _, err = run(capsys, "construct", "--family", "chi2", "--index", "13")
    assert code == 2


def test_construct_checks_text_and_capacity_before_building(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a permutation was built")

    monkeypatch.setattr(families, "regular_action", refuse)
    # the text is parsed first: s (y t)^1000004 is too long to expand
    code, out, err = run(capsys, "construct", "--family", "dh1", "--p", "1000003")
    assert (code, out) == (2, "")
    assert err == (
        "error: line 9, column 7: word expands to 2000009 letters, more than 1000000\n"
    )
    # then the family order 4(p + 1) = 100056 is held against --max-cosets
    start = time.perf_counter()
    code, out, err = run(capsys, "construct", "--family", "dh1", "--p", "25013")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (3, "", "error: coset capacity 100000 exceeded\n")


def test_construct_hp_checks_capacity_before_building(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a permutation was built")

    # |H| = 24m = 100008 is more than the default --max-cosets; 9m - 4 is
    # composite for both m, which warns
    start = time.perf_counter()
    with monkeypatch.context() as patched, pytest.warns(UserWarning):
        patched.setattr(families, "regular_action", refuse)
        code, out, err = run(capsys, "construct", "--family", "hp", "--m", "4167")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (3, "", "error: coset capacity 100000 exceeded\n")
    # |H| = 99960 is within it
    with pytest.warns(UserWarning):
        code, out, _ = run(capsys, "construct", "--family", "hp", "--m", "4165")
    assert code == 0
    with pytest.warns(UserWarning):
        assert out == map_file_text(families.hp(4165).text)


def test_construct_deterministic(capsys):
    code, first, _ = run(capsys, "construct", "--family", "dh2", "--p", "5")
    assert code == 0
    code, second, _ = run(capsys, "construct", "--family", "dh2", "--p", "5")
    assert code == 0
    assert first == second


# --- classify -------------------------------------------------------------


def test_classify_constructive_fails_fast_at_a_prime_too_large_to_build(capsys):
    # the roster of p = 100000007 is listed in O(sqrt p), and the text of its
    # first member, with s (y t)^(p + 1), is then too long to expand
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", "--p", "100000007", "--profile", "constructive")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "error: line 9, column 7: word expands to 200000017 letters, more than 1000000\n"
    )


def test_classify_p2_stdout(capsys):
    code, out, _ = run(capsys, "classify", "--p", "2")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 12
    assert [r["group_order"] for r in rows] == [8, 12, 12] + [16] * 6 + [24] * 3


def test_classify_constructive_profile(capsys):
    code, out, _ = run(capsys, "classify", "--p", "5", "--profile", "constructive")
    assert code == 0
    rows = json.loads(out)
    assert [r["family"] for r in rows] == ["dh1", "hp(1)", "dh2"]


def test_classify_outputs_are_identical_across_profiles(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["classify", "--p", "3", "--profile", "exhaustive", "--out", str(a)]) == 0
    assert main(["classify", "--p", "3", "--profile", "constructive", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_classify_unsupported_prime_exit_2(capsys):
    code, _, err = run(capsys, "classify", "--p", "7")
    assert code == 2
    assert "32" in err


def test_classify_checks_atlas_coverage_before_building_the_catalog(monkeypatch, capsys):
    def refuse(p):
        raise AssertionError(f"constructive catalog built for unsupported p={p}")

    monkeypatch.setattr(census, "_constructive_entries", refuse)
    for p, order in ((7, "32"), (1009, "12108"), (10007, "20020")):
        code, out, err = run(capsys, "classify", "--p", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: exhaustive classification at p={p} needs atlas orders [")
        assert order in err


def test_classify_non_prime_exit_2(capsys):
    code, _, err = run(capsys, "classify", "--p", "4")
    assert code == 2


def test_classify_with_jobs(capsys):
    # classify and verify ignore --jobs with one warning line on stderr;
    # stdout and the exit code are those of the run without it
    warning = "warning: --jobs is ignored and will be removed\n"
    for argv, jobs in ((("classify", "--p", "2"), "2"), (("verify", "lemma-4-2"), "1")):
        serial = run(capsys, *argv)
        assert serial[2] == ""
        assert run(capsys, *argv, "--jobs", jobs) == (serial[0], serial[1], warning)


# --- verify ---------------------------------------------------------------


def test_verify_thm_even(capsys):
    code, out, _ = run(capsys, "verify", "thm-even")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verify thm-even: PASS"
    assert "12/12 matched" in out


def test_verify_thm_odd_p3(capsys):
    code, out, _ = run(capsys, "verify", "thm-odd", "--p", "3")
    assert code == 0
    assert out.splitlines()[0] == "verify thm-odd: PASS"
    assert "catalogs identical: True" in out


def test_verify_thm_odd_requires_p(capsys):
    code, _, err = run(capsys, "verify", "thm-odd")
    assert code == 2
    assert "--p" in err


@pytest.mark.parametrize("p", ["2", "9"])
def test_verify_thm_odd_rejects_non_odd_prime(capsys, p):
    code, out, err = run(capsys, "verify", "thm-odd", "--p", p)
    assert code == 2
    assert out == ""
    assert f"odd primes only, got --p {p}" in err


def test_verify_thm_even_accepts_p_2(capsys):
    assert run(capsys, "verify", "thm-even", "--p", "2") == run(capsys, "verify", "thm-even")


@pytest.mark.parametrize("p", ["3", "5", "4"])
def test_verify_thm_even_rejects_other_p(capsys, p):
    code, out, err = run(capsys, "verify", "thm-even", "--p", p)
    assert code == 2
    assert out == ""
    assert err == f"error: verify thm-even covers p = 2 only, got --p {p}\n"


@pytest.mark.parametrize("target", ["lemma-4-2", "lemma-4-3"])
@pytest.mark.parametrize("p", ["2", "3"])
def test_verify_lemma_rejects_p(capsys, target, p):
    code, out, err = run(capsys, "verify", target, "--p", p)
    assert code == 2
    assert out == ""
    assert err == f"error: verify {target} takes no --p\n"


def test_verify_lemma_4_2(capsys):
    code, out, _ = run(capsys, "verify", "lemma-4-2")
    assert code == 0
    assert out.splitlines()[0] == "verify lemma-4-2: PASS"


def test_verify_lemma_4_3(capsys):
    code, out, _ = run(capsys, "verify", "lemma-4-3")
    assert code == 0
    assert out.splitlines()[0] == "verify lemma-4-3: PASS"
    assert "COUNTEREXAMPLE" not in out


def test_verify_exclusions_p5(capsys):
    code, out, _ = run(capsys, "verify", "exclusions", "--p", "5")
    assert code == 0
    assert out.splitlines()[0] == "verify exclusions: PASS"


def test_verify_exclusions_requires_p(capsys):
    assert run(capsys, "verify", "exclusions") == (
        2, "", "error: verify exclusions requires --p\n"
    )


def test_verify_exclusions_fails_on_an_order_the_atlas_does_not_cover(monkeypatch, capsys):
    # 88 = 8 * 11 is an admissible order at p = 11; without its recipes
    # nothing is shown for it, so the check cannot pass
    recipes = {n: r for n, r in census._RECIPES.items() if n != 88}
    monkeypatch.setattr(census, "_RECIPES", recipes)
    code, out, _ = run(capsys, "verify", "exclusions", "--p", "11")
    lines = out.splitlines()
    assert code == 1
    assert lines[0] == "verify exclusions: FAIL"
    assert "  order 88: UNSUPPORTED (no atlas recipes)" in lines
    assert all(line.endswith("(pass)") for line in lines[1:] if "88" not in line)


def test_verify_lemma_4_3_reports_a_counterexample(monkeypatch, capsys):
    conform = census._assert_probe_conformance

    def planted(p, nu, m):
        if (p, nu) == (5, 8):
            raise VerificationError("planted")
        conform(p, nu, m)

    monkeypatch.setattr(census, "_assert_probe_conformance", planted)
    code, out, err = run(capsys, "verify", "lemma-4-3")
    lines = out.splitlines()
    assert (code, err) == (1, "")
    assert lines[0] == "verify lemma-4-3: FAIL"
    assert [line for line in lines if "COUNTEREXAMPLE" in line] == [
        "  p=5 lambda=4: COUNTEREXAMPLE (planted)"
    ]
    assert len(lines) == 1 + len(_PROBE_GRID)


def test_classify_fails_when_a_constructor_misses_a_class(monkeypatch, capsys):
    entries = census._constructive_entries

    def without_h3(p):
        return {key: e for key, e in entries(p).items() if e[1].label != "h3"}

    monkeypatch.setattr(census, "_constructive_entries", without_h3)
    message = "found only by search [(36, 4, 6)], only by constructors []"
    with pytest.raises(VerificationError, match=re.escape(message)):
        census.classify(3)
    code, out, err = run(capsys, "classify", "--p", "3")
    assert (code, out) == (1, "")
    assert err.startswith("FAIL: verification assertion failed: exhaustive search")
    assert message in err


# --- export ---------------------------------------------------------------


def _write_hp1(tmp_path):
    f = tmp_path / "hp1.map"
    f.write_text(map_file_text(families.hp(1).text))
    return f


def test_export_cayley_dot(tmp_path, capsys):
    f = _write_hp1(tmp_path)
    code, out, _ = run(capsys, "export", "cayley", str(f))
    assert code == 0
    nodes, edges = parse_dot(out)
    assert nodes == list(range(24))
    # one edge per unordered pair {h, h*g} per generator: 12 per mark
    by_label = {}
    for a, b, label, style in edges:
        assert a < b
        by_label.setdefault(label, []).append((a, b))
        assert style == {"x": "bold", "y": "solid", "s": "dashed", "t": "dotted"}[label]
    assert {lbl: len(es) for lbl, es in by_label.items()} == {
        "x": 12, "y": 12, "s": 12, "t": 12,
    }


def test_export_cayley_witnesses_defining_relation(tmp_path, capsys):
    # in the valency-eight family, t x t y = 1, i.e. x = t y t: the bold
    # x-edges must coincide with the t-y-t paths
    f = _write_hp1(tmp_path)
    code, out, _ = run(capsys, "export", "cayley", str(f))
    assert code == 0
    _, edges = parse_dot(out)
    x_edges = {frozenset((a, b)) for a, b, label, _ in edges if label == "x"}

    m = load_map(f.read_text())
    group = group_from_action(m, "hp(1)")
    mul = group.mul
    _, y, _, t = marks(m)
    tyt_edges = {
        frozenset((h, mul[mul[mul[h][t]][y]][t])) for h in range(group.order)
    }
    assert x_edges == tyt_edges


def test_export_flags_dot(tmp_path, capsys):
    f = tmp_path / "m1.map"
    f.write_text(map_file_text(families.chi2(1).text))
    code, out, _ = run(capsys, "export", "flags", str(f))
    assert code == 0
    nodes, edges = parse_dot(out)
    assert nodes == list(range(16))  # 2|H| flags
    degree = {v: 0 for v in nodes}
    labels_at = {v: set() for v in nodes}
    for a, b, label, _ in edges:
        assert label in ("rho0", "rho1", "rho2")
        degree[a] += 1
        degree[b] += 1
        labels_at[a].add(label)
        labels_at[b].add(label)
    # the three flag involutions are fixed-point-free: 3-regular graph
    assert all(d == 3 for d in degree.values())
    assert all(ls == {"rho0", "rho1", "rho2"} for ls in labels_at.values())


def test_export_json_format(tmp_path, capsys):
    f = _write_hp1(tmp_path)
    code, out, _ = run(capsys, "export", "cayley", str(f), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == list(range(24))
    assert len(payload["edges"]) == 48
    assert set(payload["edges"][0]) == {"source", "target", "label"}


# SHA-256 of the export output before maps were stored as permutations
_EXPORT_DIGESTS = {
    ("chi2", "cayley", "dot"): "a91feb86173495968296bd3aa5ee7f3135e049f3d18690913a9b02739d6c7fce",
    ("chi2", "cayley", "json"): "5c325937c7545b74c37152a7fac96420e28ddf6340d941b79da0dd9145fbb852",
    ("chi2", "flags", "dot"): "8785b140044cef7b0dae04a0d4d970b0627f6b6588d89cb0cd326b2291235a15",
    ("chi2", "flags", "json"): "5876723c8828698c2f1bc7c9cb1aac28bfb4bbcec489668fb7d0d5c9f8c78ea9",
    ("hp", "cayley", "dot"): "35dc6041482b0b75cb9b405b347f795c1c0cf4919b6418ecd302622258a2781a",
    ("hp", "cayley", "json"): "2513b56f3dad5268782e2a7ce6aa6bce171dbdde0028047b87cc611d6375bf88",
    ("hp", "flags", "dot"): "74ff9fd22ebb7f539081ec7d38e4a465e463378d28a7aac998bc5ac4f4c70295",
    ("hp", "flags", "json"): "1b191f77c2ee04021f3345472f5740b89df087d898da77138bbbec0ce4320e4c",
}


@pytest.mark.parametrize("family, what, fmt", sorted(_EXPORT_DIGESTS))
def test_export_output_unchanged(tmp_path, capsys, family, what, fmt):
    if family == "chi2":
        f = tmp_path / "chi2_4.map"
        f.write_text(map_file_text(families.chi2(4).text))
    else:
        f = _write_hp1(tmp_path)
    code, out, _ = run(capsys, "export", what, str(f), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _EXPORT_DIGESTS[family, what, fmt]


def test_export_deterministic(tmp_path):
    f = _write_hp1(tmp_path)
    a, b = tmp_path / "a.dot", tmp_path / "b.dot"
    assert main(["export", "flags", str(f), "--out", str(a)]) == 0
    assert main(["export", "flags", str(f), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# --- benchmark reference outputs -----------------------------------------

_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


@pytest.mark.parametrize(
    "command",
    ["classify --p 401 --profile constructive", "construct --family dh1 --p 997"],
)
def test_large_constructions_match_reference_digest(capsys, command):
    want = json.loads(_REFERENCE.read_text())["commands"][command]
    code, out, _ = run(capsys, *command.split())
    assert code == want["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"]


# --- console script -------------------------------------------------------


def test_console_script_installed(tmp_path):
    exe = shutil.which("ebrmaps")
    if exe is None:
        pytest.skip("console script not on PATH")
    f = tmp_path / "d12.txt"
    f.write_text("gens a b\nrel a^2\nrel b^2\nrel (a b)^6\n")
    proc = subprocess.run([exe, "order", str(f)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "12"
