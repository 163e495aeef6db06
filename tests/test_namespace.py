"""The package namespace is lazy: importing ``ebrmaps`` loads none of its
modules, and a CLI process loads only the modules its command runs.

Each check runs in a fresh interpreter, because this test process has long
since imported every module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str, *options: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *options, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_module_of_the_package():
    out = run_fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ebrmaps\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    loaded = eval(out)
    assert "ebrmaps" in loaded
    assert [m for m in loaded if m.startswith("ebrmaps.") or m == "dataclasses"] == []


def test_every_exported_name_is_its_module_attribute():
    run_fresh(
        "import importlib\n"
        "import ebrmaps\n"
        "names = [name for names in ebrmaps._EXPORTS.values() for name in names]\n"
        "assert sorted(names) == sorted(set(names)) == ebrmaps.__all__\n"
        "for module, names in ebrmaps._EXPORTS.items():\n"
        "    owner = importlib.import_module('ebrmaps.' + module)\n"
        "    for name in names:\n"
        "        assert getattr(ebrmaps, name) is getattr(owner, name), name\n"
    )


@pytest.mark.parametrize("module", ["groups", "presentations", "maps", "families", "census"])
def test_module_is_an_attribute_of_the_package(module):
    run_fresh(
        "import ebrmaps\n"
        f"assert ebrmaps.{module} is __import__('ebrmaps.{module}').{module}\n"
    )


def test_dir_and_star_import_list_every_exported_name():
    run_fresh(
        "import ebrmaps\n"
        "assert set(ebrmaps.__all__) <= set(dir(ebrmaps))\n"
        "namespace = {}\n"
        "exec('from ebrmaps import *', namespace)\n"
        "assert set(ebrmaps.__all__) <= set(namespace)\n"
        "assert namespace['classify'] is ebrmaps.census.classify\n"
    )


def test_unknown_attribute_raises_attribute_error():
    out = run_fresh(
        "import ebrmaps\n"
        "try:\n"
        "    ebrmaps.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out == "module 'ebrmaps' has no attribute 'no_such_name'\n"


# The commands the benchmark runs: each with its first output line, the
# modules it must load and the modules it must not.
BENCHMARK_COMMANDS = [
    (
        ["verify", "exclusions", "--p", "11"],
        "verify exclusions: PASS",
        {"ebrmaps.census", "ebrmaps.groups", "ebrmaps.maps"},
        {"ebrmaps.families", "ebrmaps.presentations", "dataclasses", "json"},
    ),
    (
        ["classify", "--p", "3"],
        "[",
        {"ebrmaps.census", "ebrmaps.families", "json"},
        {"dataclasses"},
    ),
    (
        ["classify", "--p", "401", "--profile", "constructive"],
        "[",
        {"ebrmaps.census", "ebrmaps.families", "ebrmaps.presentations", "json"},
        {"dataclasses"},
    ),
    (
        ["construct", "--family", "dh1", "--p", "997"],
        "gens x y s t",
        {"ebrmaps.families", "ebrmaps.presentations", "ebrmaps.maps"},
        {"ebrmaps.census", "dataclasses", "json"},
    ),
]


@pytest.mark.parametrize(
    "argv, first, loads, skips",
    BENCHMARK_COMMANDS,
    ids=["exclusions", "exhaustive", "constructive", "construct"],
)
def test_command_loads_only_what_it_runs(argv, first, loads, skips):
    # as `python -m ebrmaps.cli ARGV`, under -S so that site preloads nothing;
    # every chi check is an integer equation and file I/O uses open, so no
    # command loads fractions (with decimal and numbers) or pathlib; help
    # has a fixed width, so argparse never imports shutil (with fnmatch and
    # the compression modules)
    out = run_fresh(
        "import runpy, sys\n"
        "before = set(sys.modules)\n"
        f"sys.argv = ['ebrmaps', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('ebrmaps.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(sorted(set(sys.modules) - before))\n",
        "-S",
    )
    head, *_, loaded = out.splitlines()
    assert head == first
    loaded = set(eval(loaded))
    assert loads <= loaded
    never = {"fractions", "decimal", "numbers", "pathlib"}
    never |= {"shutil", "fnmatch", "bz2", "lzma", "zlib"}
    assert loaded & (skips | never) == set()


def _imports():
    """(module file name, imported module name, import level) for every
    import statement in the package, at module level or in a function;
    level 0 is an absolute import, and ``from . import m`` imports m."""
    for path in sorted((SRC / "ebrmaps").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                yield from ((path.name, alias.name, 0) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.module else [alias.name for alias in node.names]
                yield from ((path.name, name, node.level) for name in names)


# every module imports only the modules before it, so the graph has no cycle
MODULE_ORDER = ("groups", "presentations", "maps", "families", "census", "cli")


def test_modules_import_only_the_modules_before_them():
    # families builds members and census searches, so census may call the
    # families but not the reverse; __init__ names every module lazily, and
    # a relative import is the only way to name a sibling, as every absolute
    # import is of the standard library
    rank = {name: i for i, name in enumerate(MODULE_ORDER)}
    assert {p.stem for p in (SRC / "ebrmaps").glob("*.py")} == {*MODULE_ORDER, "__init__"}
    backward = []
    for path, name, level in _imports():
        module, sibling = path.removesuffix(".py"), name.split(".")[0]
        if level and module != "__init__" and rank[sibling] >= rank[module]:
            backward.append((module, sibling))
    assert backward == []


def test_no_module_imports_dataclasses():
    for path, name, _ in _imports():
        assert name.split(".")[0] != "dataclasses", path


def test_no_module_imports_a_private_name_from_presentations():
    # the enumerator, its table check and the lift stay behind one function
    for path in sorted((SRC / "ebrmaps").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "presentations",
                "ebrmaps.presentations",
            ):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert private == [], (path.name, private)


def test_no_module_uses_assert():
    # the library's checks must also run under python -O, which strips asserts
    for path in sorted((SRC / "ebrmaps").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], (path.name, lines)


def test_every_absolute_import_is_of_the_standard_library():
    # the runtime stays pure stdlib
    for path, name, level in _imports():
        if level == 0:
            assert name.split(".")[0] in sys.stdlib_module_names, (path, name)


def test_every_private_helper_is_used_by_the_library():
    # a module-level _helper that only tests call belongs in the tests
    paths = (SRC / "ebrmaps").glob("*.py")
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    helpers = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(node)
    assert {"_orbit", "_mark_names", "_table_fault"} <= {helper.name for helper in helpers}
    unused = []
    for helper in helpers:
        own = set(map(id, ast.walk(helper)))
        if all(id(node) in own for node in uses.get(helper.name, [])):
            unused.append(helper.name)
    assert unused == []


def test_capacity_is_a_resource_limit_in_a_fresh_process():
    # the CLI maps CapacityExceeded to exit 3 without importing the
    # enumerator itself; here the family builder imports it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = ["construct", "--family", "dh1", "--p", "3", "--max-cosets", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "ebrmaps.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3,
        "",
        "error: coset capacity 1 exceeded\n",
    )
