"""Command-line front end for edge-biregular map computations.

Subcommands
-----------
order       print the order of a finitely presented group
invariants  print the invariant record of a map file as JSON
construct   emit the map file of a named family member
classify    write the full catalog of maps with chi = -p as JSON
verify      run a named verification and report PASS or FAIL
export      emit a Cayley-graph or flag-graph view of a map (DOT or JSON)

Exit codes: 0 success or PASS, 1 verification FAIL, 2 input error,
3 resource limit (coset capacity).

All output is deterministic byte-for-byte for fixed inputs and flags.
DOT edge styling encodes the mark that labels each edge: x bold, y solid
(thin), s dashed (long), t dotted (short).  Each undirected Cayley edge
{h, h*g} is emitted once, from its smaller endpoint.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .groups import DEFAULT_MAX_COSETS, CapacityExceeded

# Each subcommand imports the modules it runs, so that a process loads no
# module its command does not use.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .maps import EdgeBiregularMap

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3

# Existing command lines pass --jobs, so classify and verify still accept it,
# with a warning on stderr, until it is removed.
_JOBS_HELP = "ignored, and will be removed"

_MARK_STYLES = {"x": "bold", "y": "solid", "s": "dashed", "t": "dotted"}


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _positive_int(text: str) -> int:
    """The value of --max-cosets: a bound below 1 could never be met, so it
    is an input error, not a resource limit."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _write_out(args: argparse.Namespace, text: str) -> None:
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands


def cmd_order(args: argparse.Namespace) -> int:
    from .maps import strip_mark_lines
    from .presentations import coset_enumerate, parse_presentation

    text = strip_mark_lines(_read_text(args.file))
    pres = parse_presentation(text)
    table = coset_enumerate(pres, (), max_cosets=args.max_cosets)
    _write_out(args, f"{table.num_cosets}\n")
    return EXIT_OK


def cmd_invariants(args: argparse.Namespace) -> int:
    import json

    from .maps import load_map, map_invariants

    m = load_map(_read_text(args.file), max_cosets=args.max_cosets)
    _write_out(args, json.dumps(map_invariants(m), indent=2) + "\n")
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    from . import families
    from .maps import map_file_text

    def need(flag: str, value) -> None:
        if value is None:
            raise ValueError(f"--family {args.family} requires {flag}")

    # each family member is built (and so checked) before its file is written
    if args.family in ("dh1", "dh2"):
        need("--p", args.p)
        if args.family == "dh1":
            families.dihedral_family_1(args.p, max_cosets=args.max_cosets)
            text = families.dihedral_family_1_text(args.p)
        else:
            families.dihedral_family_2(args.p, max_cosets=args.max_cosets)
            text = families.dihedral_family_2_text(args.p)
    elif args.family == "hpj":
        need("--kappa", args.kappa)
        need("--lambda", args.lam)
        need("--j", args.j)
        params = families.FamilyParams(args.kappa, args.lam, args.j)
        families.cyclic_fitting_map(params, max_cosets=args.max_cosets)
        text = families.cyclic_fitting_text(params)
    elif args.family == "hp":
        need("--m", args.m)
        families.valency_eight_map(args.m, max_cosets=args.max_cosets)
        text = families.valency_eight_text(args.m)
    elif args.family == "h3":
        families.exceptional_order36_map(max_cosets=args.max_cosets)
        text = families.exceptional_order36_text()
    else:  # chi2
        need("--index", args.index)
        families.chi_minus_2_map(args.index, max_cosets=args.max_cosets)
        text = families.chi_minus_2_text(args.index)
    _write_out(args, map_file_text(text))
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    from . import census

    entries = census.classify(args.p, args.profile)
    _write_out(args, census.catalog_json(entries))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify targets


def _verify_thm_even(lines: list[str]) -> bool:
    from . import census, families

    rows = census.catalog_rows(census.classify(2, "exhaustive"))
    expected = []
    for i in range(1, 13):
        k, l = families.CHI2_EXPECTED_TYPES[i - 1]
        expected.append(
            {
                "family": f"chi2({i})",
                "group_order": families.CHI2_EXPECTED_ORDERS[i - 1],
                "type": [min(k, l), max(k, l)],
                "orientable": i in families.CHI2_ORIENTABLE_INDICES,
                "fully_regular": i in families.CHI2_FULLY_REGULAR_INDICES,
            }
        )
    matched = 0
    by_family = {row["family"]: row for row in rows}
    for want in expected:
        row = by_family.get(want["family"])
        ok = row is not None and all(row[key] == want[key] for key in want)
        matched += ok
        lines.append(f"  {want['family']}: {'ok' if ok else 'MISMATCH'}")
    lines.append(f"{matched}/12 matched, {len(rows)} catalog entries")
    return matched == 12 and len(rows) == 12


def _verify_thm_odd(p: int, lines: list[str]) -> bool:
    from . import census
    from .groups import is_prime

    if p == 2 or not is_prime(p):
        raise ValueError(f"verify thm-odd covers odd primes only, got --p {p}")
    exhaustive = census.classify(p, "exhaustive")
    constructive = census.classify(p, "constructive")
    same = census.catalog_json(exhaustive) == census.catalog_json(constructive)
    for row in census.catalog_rows(exhaustive):
        lines.append(
            f"  order {row['group_order']} type {row['type']} family {row['family']}"
        )
    lines.append(
        f"exhaustive: {len(exhaustive)} classes;"
        f" constructive: {len(constructive)}; catalogs identical: {same}"
    )
    return same


_PROBE_GRID = ((3, 5), (5, 3), (7, 3), (7, 5), (5, 4), (5, 6))


def _verify_lemma_4_3(lines: list[str]) -> bool:
    from . import families

    ok = True
    for p, lam in _PROBE_GRID:
        try:
            found = families.cyclic_by_dihedral_probe(p, lam)
        except AssertionError as exc:
            lines.append(f"  p={p} lambda={lam}: COUNTEREXAMPLE ({exc})")
            ok = False
            continue
        lines.append(f"  p={p} lambda={lam}: {len(found)} maps, all conformant")
    return ok


def _verify_lemma_4_2(lines: list[str]) -> bool:
    from . import census

    report = census.verify_chi_minus_1_dihedral()
    for row in report["groups"]:
        lines.append(
            f"  order {row['order']} group {row['group']}:"
            f" {row['maps_found']} maps ({'ok' if row['ok'] else 'VIOLATION'})"
        )
    return report["passed"]


def _verify_exclusions(p: int, lines: list[str]) -> bool:
    from . import census

    report = census.verify_p_divides_exclusions(p)
    for row in report["orders"]:
        if row["status"] == "UNSUPPORTED":
            lines.append(f"  order {row['order']}: UNSUPPORTED (no atlas recipes)")
        else:
            lines.append(
                f"  order {row['order']}: {row['maps_found']} maps ({row['status']})"
            )
    return report["passed"]


def cmd_verify(args: argparse.Namespace) -> int:
    lines: list[str] = []
    if args.target == "thm-even" and args.p not in (None, 2):
        raise ValueError(f"verify thm-even covers p = 2 only, got --p {args.p}")
    if args.target in ("lemma-4-2", "lemma-4-3") and args.p is not None:
        raise ValueError(f"verify {args.target} takes no --p")
    if args.target == "thm-even":
        passed = _verify_thm_even(lines)
    elif args.target == "thm-odd":
        if args.p is None:
            raise ValueError("verify thm-odd requires --p")
        passed = _verify_thm_odd(args.p, lines)
    elif args.target == "lemma-4-2":
        passed = _verify_lemma_4_2(lines)
    elif args.target == "lemma-4-3":
        passed = _verify_lemma_4_3(lines)
    else:  # exclusions
        if args.p is None:
            raise ValueError("verify exclusions requires --p")
        passed = _verify_exclusions(args.p, lines)
    verdict = "PASS" if passed else "FAIL"
    _write_out(args, "\n".join([f"verify {args.target}: {verdict}"] + lines) + "\n")
    return EXIT_OK if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# graph exports


def _cayley_edges(m: EdgeBiregularMap) -> list[tuple[int, int, str]]:
    edges = []
    for label, perm in zip(("x", "y", "s", "t"), m.perms):
        for h in range(m.order):
            other = perm[h]
            if h < other:
                edges.append((h, other, label))
    return edges


def _flag_edges(m: EdgeBiregularMap) -> list[tuple[int, int, str]]:
    from .maps import flag_structure

    fs = flag_structure(m)
    edges = []
    for label, rho in (("rho0", fs.rho0), ("rho1", fs.rho1), ("rho2", fs.rho2)):
        for f in range(fs.num_flags):
            if f < rho[f]:
                edges.append((f, rho[f], label))
    return edges


def _dot_graph(name: str, num_nodes: int, edges: list[tuple[int, int, str]]) -> str:
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    lines += [f"  {v};" for v in range(num_nodes)]
    for a, b, label in edges:
        style = _MARK_STYLES.get(label, "solid")
        lines.append(f'  {a} -- {b} [label="{label}", style="{style}"];')
    return "\n".join(lines + ["}"]) + "\n"


def _json_graph(num_nodes: int, edges: list[tuple[int, int, str]]) -> str:
    import json

    payload = {
        "nodes": list(range(num_nodes)),
        "edges": [{"source": a, "target": b, "label": lbl} for a, b, lbl in edges],
    }
    return json.dumps(payload, indent=2) + "\n"


def cmd_export(args: argparse.Namespace) -> int:
    from .maps import load_map

    m = load_map(_read_text(args.file), max_cosets=args.max_cosets)
    if args.what == "cayley":
        num_nodes, edges = m.order, _cayley_edges(m)
    else:  # flags
        num_nodes, edges = 2 * m.order, _flag_edges(m)
    if args.format == "dot":
        _write_out(args, _dot_graph(args.what, num_nodes, edges))
    else:
        _write_out(args, _json_graph(num_nodes, edges))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ebrmaps",
        description="Construct, analyze, classify and export edge-biregular maps.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, max_cosets: bool = True) -> None:
        if max_cosets:
            p.add_argument("--max-cosets", type=_positive_int, default=DEFAULT_MAX_COSETS)
        p.add_argument("--out", default="-", help="output path (default stdout)")

    p_order = sub.add_parser("order", help="order of a finitely presented group")
    p_order.add_argument("file", help="presentation or map file")
    common(p_order)
    p_order.set_defaults(func=cmd_order)

    p_inv = sub.add_parser("invariants", help="map invariants as JSON")
    p_inv.add_argument("file", help="map file")
    common(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    p_con = sub.add_parser("construct", help="emit a family member's map file")
    p_con.add_argument(
        "--family", required=True, choices=("dh1", "dh2", "hpj", "hp", "h3", "chi2")
    )
    p_con.add_argument("--p", type=int)
    p_con.add_argument("--kappa", type=int)
    p_con.add_argument("--lambda", dest="lam", type=int)
    p_con.add_argument("--j", type=int)
    p_con.add_argument("--m", type=int)
    p_con.add_argument("--index", type=int)
    common(p_con)
    p_con.set_defaults(func=cmd_construct)

    p_cls = sub.add_parser("classify", help="catalog of maps with chi = -p")
    p_cls.add_argument("--p", type=int, required=True)
    p_cls.add_argument(
        "--profile", choices=("exhaustive", "constructive"), default="exhaustive"
    )
    p_cls.add_argument("--jobs", type=int, help=_JOBS_HELP)
    common(p_cls, max_cosets=False)
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="run a named verification")
    p_ver.add_argument(
        "target",
        choices=("thm-odd", "thm-even", "lemma-4-2", "lemma-4-3", "exclusions"),
    )
    p_ver.add_argument("--p", type=int)
    p_ver.add_argument("--jobs", type=int, help=_JOBS_HELP)
    common(p_ver, max_cosets=False)
    p_ver.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("export", help="graph view of a map")
    p_exp.add_argument("what", choices=("cayley", "flags"))
    p_exp.add_argument("file", help="map file")
    p_exp.add_argument("--format", choices=("dot", "json"), default="dot")
    common(p_exp)
    p_exp.set_defaults(func=cmd_export)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "jobs", None) is not None:
        print("warning: --jobs is ignored and will be removed", file=sys.stderr)
    try:
        return args.func(args)
    except CapacityExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, OSError) as exc:  # ParseError and the like are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"FAIL: verification assertion failed{detail}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
