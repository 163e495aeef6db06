"""The benchmark's workloads: fixed lists of `ebrmaps` CLI commands.

Each workload is a closed loop: one driver process runs its commands one at
a time, each in a fresh `python -m ebrmaps.cli` process, because every user
invocation pays for its own imports and its own atlas cache.

Why each workload exists:

* ``exhaustive`` is the catalog claim itself (chi = -2 and -3 by exhaustive
  search).  Its time goes to the `census` and `maps` layers: atlas build,
  quadruple search, pairwise dedup and matching.  Groups have at most 36
  elements, so the working set stays in cache.  The ``--jobs 2`` command is
  the only place the process pool runs.
* ``exclusions`` drives the quadruple search with a chi filter that accepts
  nothing (201,291 chi tests at p = 11), so dedup, matching and
  `presentations` do no work.  A faster chi test shows here in full; a
  faster dedup should show nothing.
* ``constructive`` builds family members with |H| up to ~4000: coset
  enumeration, dense |H|^2 table fill and `semidirect` checks in the
  `presentations` and `groups` layers.  The census search never runs, so a
  search optimisation should leave it flat; the 16M-entry tables show up
  in peak memory.

The exhaustive and exclusions inputs are fixed because the atlas covers only
those primes.  The constructive primes come from a workload seed: seed 0
gives p = 401 and p = 997; any other seed draws both from the fixed lists
below, so a claim can be re-checked on inputs it was not tuned on.
"""

from __future__ import annotations

import random

EXHAUSTIVE = (
    ("classify", "--p", "2"),
    ("classify", "--p", "3"),
    ("classify", "--p", "3", "--jobs", "2"),
)

EXCLUSIONS = (
    ("verify", "exclusions", "--p", "5"),
    ("verify", "exclusions", "--p", "7"),
    ("verify", "exclusions", "--p", "11"),
)

# Primes of similar size to the default inputs.  The number of hpj family
# members, and so the cost of one classify, varies with p (4 to 12 here).
CLASSIFY_PRIMES = (389, 397, 401, 409, 419, 421, 431, 433)
DH1_PRIMES = (983, 991, 997, 1009, 1013, 1019, 1021)

WORKLOADS = ("exhaustive", "exclusions", "constructive")


def constructive_primes(workload_seed: int) -> tuple[int, int]:
    """(classify prime, dh1 prime) for a workload seed; seed 0 is (401, 997)."""
    if workload_seed == 0:
        return 401, 997
    rng = random.Random(workload_seed)
    return rng.choice(CLASSIFY_PRIMES), rng.choice(DH1_PRIMES)


def commands(workload: str, workload_seed: int = 0) -> list[tuple[str, ...]]:
    """The CLI argument lists of one pass over the workload."""
    if workload == "exhaustive":
        return list(EXHAUSTIVE)
    if workload == "exclusions":
        return list(EXCLUSIONS)
    if workload == "constructive":
        p_classify, p_dh1 = constructive_primes(workload_seed)
        return [
            ("classify", "--p", str(p_classify), "--profile", "constructive"),
            ("construct", "--family", "dh1", "--p", str(p_dh1)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def all_commands() -> list[tuple[str, ...]]:
    """Every command any workload seed can produce (for the reference)."""
    out = list(EXHAUSTIVE) + list(EXCLUSIONS)
    out += [("classify", "--p", str(p), "--profile", "constructive") for p in CLASSIFY_PRIMES]
    out += [("construct", "--family", "dh1", "--p", str(p)) for p in DH1_PRIMES]
    return out


def is_parallel(argv: tuple[str, ...]) -> bool:
    """Commands that fork pool workers; their workers' calls cannot be traced."""
    return "--jobs" in argv and argv[argv.index("--jobs") + 1] != "1"
