"""Correctness checks for one CLI command's result.

A command passes when its exit code and the SHA-256 of its stdout equal the
values recorded in ``reference.json`` (the catalog output is byte-for-byte
deterministic), and its output states the facts below.  The facts come from
the paper's classification, not from the code under test:

* chi = -2 has exactly 12 maps, on groups of orders 8, 12, 12, 16 (six
  times) and 24 (three times);
* chi = -3 has dh1 (order 16, type (4, 16)), dh2 (order 20, type (4, 10))
  and h3 (order 36, type (4, 6));
* for an odd prime p, dh1 has order 4(p+1) and type (4, 4(p+1)), dh2 has
  order 4(p+2) and type (4, 2(p+2)), and hpj(kappa, lambda, j) has order
  4*kappa*lambda, type (4*kappa, 2*lambda) and p = 2*kappa*lambda -
  2*kappa - lambda, and hp(m) has order 24m, type (8, 6m) and p = 9m - 4;
* every verify report passes;
* the dh1 map file carries the relator ``s (y t)^{p+1}``.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

CHI2_ORDERS = [8, 12, 12] + [16] * 6 + [24] * 3
CHI3_ROWS = {("dh1", 16, (4, 16)), ("dh2", 20, (4, 10)), ("h3", 36, (4, 6))}


def command_key(argv: tuple[str, ...] | list[str]) -> str:
    return " ".join(argv)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["commands"]


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _catalog_facts(p: int, stdout: bytes) -> list[str]:
    try:
        rows = json.loads(stdout)
        kinds = [(r["family"], r["group_order"], tuple(r["type"]), r["chi"]) for r in rows]
    except (ValueError, TypeError, KeyError) as exc:
        return [f"catalog is not a list of rows: {exc}"]
    problems = [f"row {fam} has chi {chi}, not {-p}" for fam, _, _, chi in kinds if chi != -p]
    if p == 2:
        orders = sorted(order for _, order, _, _ in kinds)
        if orders != CHI2_ORDERS:
            problems.append(f"chi = -2 orders {orders}, expected {CHI2_ORDERS}")
        return problems
    if p == 3:
        got = {(fam, order, typ) for fam, order, typ, _ in kinds}
        if got != CHI3_ROWS or len(kinds) != 3:
            problems.append(f"chi = -3 rows {sorted(got)}, expected {sorted(CHI3_ROWS)}")
        return problems
    expected = {
        "dh1": (4 * (p + 1), (4, 4 * (p + 1))),
        "dh2": (4 * (p + 2), (4, 2 * (p + 2))),
    }
    for fam, order, typ, _ in kinds:
        hpj = re.fullmatch(r"hpj\((\d+),(\d+),(\d+)\)", fam or "")
        hp = re.fullmatch(r"hp\((\d+)\)", fam or "")
        if hpj:
            kappa, lam = int(hpj[1]), int(hpj[2])
            if 2 * kappa * lam - 2 * kappa - lam != p:
                problems.append(f"{fam} does not belong to p = {p}")
            want = (4 * kappa * lam, tuple(sorted((4 * kappa, 2 * lam))))
        elif hp:
            m = int(hp[1])
            if 9 * m - 4 != p:
                problems.append(f"{fam} does not belong to p = {p}")
            want = (24 * m, tuple(sorted((8, 6 * m))))
        else:
            want = expected.pop(fam, None)
        if want is not None and (order, typ) != want:
            problems.append(f"{fam}: order {order} type {list(typ)}, expected {want}")
    problems += [f"family {fam} missing" for fam in expected]
    return problems


def paper_facts(argv: tuple[str, ...] | list[str], stdout: bytes) -> list[str]:
    """Problems with the output's paper-derived facts (empty when it agrees)."""
    argv = list(argv)
    p = _flag(argv, "--p")
    if argv[0] == "classify":
        return _catalog_facts(int(p), stdout)
    if argv[0] == "verify":
        lines = stdout.decode("utf-8", "replace").splitlines()
        if not lines or lines[0] != f"verify {argv[1]}: PASS":
            return ["verify report does not pass"]
        return []
    if argv[0] == "construct" and _flag(argv, "--family") == "dh1":
        relator = f"rel s (y t)^{int(p) + 1}"
        if relator not in stdout.decode("utf-8", "replace").splitlines():
            return [f"dh1 map file lacks {relator!r}"]
    return []


def problems(reference: dict, argv, returncode: int, stdout: bytes) -> list[str]:
    """Everything wrong with one command's result; empty means it passed."""
    ref = reference.get(command_key(argv))
    if ref is None:
        return [f"no reference for {command_key(argv)!r}"]
    out = []
    if returncode != ref["exit"]:
        out.append(f"exit code {returncode}, expected {ref['exit']}")
    if digest(stdout) != ref["sha256"]:
        out.append(f"stdout digest differs from reference ({len(stdout)} bytes)")
    return out + paper_facts(argv, stdout)
