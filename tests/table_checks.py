"""Group-axiom checks on multiplication tables, shared by the test modules.

The checks raise AssertionError explicitly rather than using ``assert``, so
they still run when the suite is started with ``python -O``.
"""

import itertools
import random

from ebrmaps.groups import FiniteGroup


def validate_group_table(
    g: FiniteGroup, exhaustive_limit: int = 100, samples: int = 100_000, seed: int = 0
) -> None:
    """Check the group axioms on the table; raises AssertionError on failure.

    Associativity is checked exhaustively for orders up to
    ``exhaustive_limit`` and on ``samples`` random triples above that.
    """
    n = g.order
    mul = g.mul
    e = 0
    if not all(mul[e][x] == x and mul[x][e] == x for x in range(n)):
        raise AssertionError(f"{g.name}: element {e} is not a two-sided identity")
    if not all(mul[x][g.inv[x]] == e and mul[g.inv[x]][x] == e for x in range(n)):
        raise AssertionError(f"{g.name}: inverse table is wrong")
    if not all(sorted(row) == list(range(n)) for row in mul):
        raise AssertionError(f"{g.name}: rows must permute")
    if n <= exhaustive_limit:
        triples = itertools.product(range(n), repeat=3)
    else:
        rng = random.Random(seed)
        triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(samples))
    for x, y, z in triples:
        if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
            raise AssertionError(f"{g.name}: associativity fails at {(x, y, z)}")
