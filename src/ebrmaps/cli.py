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
(thin), s dashed (long), t dotted (short).  Each undirected edge, {h, h*g}
or {f, rho(f)}, is emitted once, from its smaller endpoint.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from collections.abc import Callable, Sequence

from .groups import DEFAULT_MAX_COSETS, CapacityExceeded, Perm

# Each subcommand imports the modules it runs, so that a process loads no
# module its command does not use.

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3

# Existing command lines pass --jobs, so classify and verify still accept it,
# with a warning on stderr, until it is removed.
_JOBS_HELP = "ignored, and will be removed"

_MARK_STYLES = {"x": "bold", "y": "solid", "s": "dashed", "t": "dotted"}


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


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
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)


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


# the flags of each --family, in the order of its constructor's parameters
_FAMILY_FLAGS = {
    "dh1": ("p",),
    "dh2": ("p",),
    "hpj": ("kappa", "lambda", "j"),
    "hp": ("m",),
    "h3": (),
    "chi2": ("index",),
}
_CONSTRUCT_FLAGS = tuple(dict.fromkeys(f for flags in _FAMILY_FLAGS.values() for f in flags))


def cmd_construct(args: argparse.Namespace) -> int:
    from . import families
    from .maps import map_file_text

    given = vars(args)
    takes = _FAMILY_FLAGS[args.family]
    for flag in takes:
        if given[flag] is None:
            raise ValueError(f"--family {args.family} requires --{flag}")
    for flag in _CONSTRUCT_FLAGS:
        if flag not in takes and given[flag] is not None:
            raise ValueError(f"--family {args.family} takes no --{flag}")
    member = getattr(families, args.family)(*(given[flag] for flag in takes))
    member.build(args.max_cosets)  # checked before its file is written
    _write_out(args, map_file_text(member.text))
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
    expected = [
        {
            "family": member.label,
            "group_order": member.order,
            "type": sorted(member.map_type),
            "orientable": i in families.CHI2_ORIENTABLE_INDICES,
            "fully_regular": i in families.CHI2_FULLY_REGULAR_INDICES,
        }
        for i, member in enumerate(families.members(2), start=1)
    ]
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
    from . import census

    ok = True
    for p, lam in _PROBE_GRID:
        try:
            found = census.cyclic_by_dihedral_probe(p, lam)
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


def _edges(labels: Sequence[str], perms: Sequence[Perm]) -> list[tuple[int, int, str]]:
    """Each pair {h, perm[h]} of each labelled involution once, from its
    smaller end."""
    return [
        (h, other, label)
        for label, perm in zip(labels, perms)
        for h, other in enumerate(perm)
        if h < other
    ]


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
    from .maps import MARK_NAMES, flag_structure, load_map

    m = load_map(_read_text(args.file), max_cosets=args.max_cosets)
    if args.what == "cayley":
        labels, perms = MARK_NAMES, m
    else:  # flags
        labels, perms = ("rho0", "rho1", "rho2"), flag_structure(m)
    num_nodes, edges = len(perms[0]), _edges(labels, perms)
    if args.format == "dot":
        _write_out(args, _dot_graph(args.what, num_nodes, edges))
    else:
        _write_out(args, _json_graph(num_nodes, edges))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point


def _fixed_width(prog: str) -> argparse.HelpFormatter:
    """Help and usage at argparse's width with no terminal, whatever
    $COLUMNS says; given a width, argparse does not import shutil."""
    return argparse.HelpFormatter(prog, width=78)


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ebrmaps",
        description="Construct, analyze, classify and export edge-biregular maps.",
        formatter_class=_fixed_width,
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def command(name: str, help: str, func: Callable) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, formatter_class=_fixed_width)
        p.set_defaults(func=func)
        return p

    def common(p: argparse.ArgumentParser, max_cosets: bool = True) -> None:
        if max_cosets:
            p.add_argument("--max-cosets", type=_positive_int, default=DEFAULT_MAX_COSETS)
        p.add_argument("--out", default="-", help="output path (default stdout)")

    p_order = command("order", "order of a finitely presented group", cmd_order)
    p_order.add_argument("file", help="presentation or map file")
    common(p_order)

    p_inv = command("invariants", "map invariants as JSON", cmd_invariants)
    p_inv.add_argument("file", help="map file")
    common(p_inv)

    p_con = command("construct", "emit a family member's map file", cmd_construct)
    p_con.add_argument("--family", required=True, choices=tuple(_FAMILY_FLAGS))
    for flag in _CONSTRUCT_FLAGS:
        p_con.add_argument(f"--{flag}", type=int)
    common(p_con)

    p_cls = command("classify", "catalog of maps with chi = -p", cmd_classify)
    p_cls.add_argument("--p", type=int, required=True)
    p_cls.add_argument(
        "--profile", choices=("exhaustive", "constructive"), default="exhaustive"
    )
    p_cls.add_argument("--jobs", type=int, help=_JOBS_HELP)
    common(p_cls, max_cosets=False)

    p_ver = command("verify", "run a named verification", cmd_verify)
    p_ver.add_argument(
        "target",
        choices=("thm-odd", "thm-even", "lemma-4-2", "lemma-4-3", "exclusions"),
    )
    p_ver.add_argument("--p", type=int)
    p_ver.add_argument("--jobs", type=int, help=_JOBS_HELP)
    common(p_ver, max_cosets=False)

    p_exp = command("export", "graph view of a map", cmd_export)
    p_exp.add_argument("what", choices=("cayley", "flags"))
    p_exp.add_argument("file", help="map file")
    p_exp.add_argument("--format", choices=("dot", "json"), default="dot")
    common(p_exp)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "jobs", None) is not None:
        print("warning: --jobs is ignored and will be removed", file=sys.stderr)
    # one line per warning, as for --jobs: no install path or source line
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
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
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
