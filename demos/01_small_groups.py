"""Tour of the concrete group layer.

Every group is an explicit multiplication table; constructors cover the
cyclic, dihedral, dicyclic, symmetric and alternating series plus direct
and semidirect products.  Note the dihedral convention used throughout:
``dihedral(n)`` is the dihedral group OF ORDER n.
"""

from ebrmaps.groups import (
    alternating,
    are_isomorphic,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    multiplicative_units,
    semidirect,
    symmetric,
)


def describe(g):
    orders = sorted(g.element_orders)
    print(f"  {g.name:<12} order {g.order:>3}  abelian={g.is_abelian()!s:<5} "
          f"involutions={len(g.involutions()):>2}  element orders {orders}")


def main():
    print("cyclic and dihedral groups")
    for n in (4, 8, 12):
        describe(cyclic(n))
        describe(dihedral(n))

    print("\nquaternion-like and permutation groups")
    describe(dicyclic(2))  # Q8
    describe(dicyclic(4))  # Q16
    describe(symmetric(4))
    describe(alternating(5))

    print("\nproducts")
    describe(direct_product(cyclic(4), cyclic(2)))
    c6 = cyclic(6)
    flip = tuple(c6.inv)  # inversion automorphism
    ident = tuple(range(6))
    d12 = semidirect(c6, cyclic(2), (ident, flip), name="C6:C2")
    describe(d12)
    print("  C6:C2 is dihedral of order 12:",
          are_isomorphic(d12, dihedral(12)))

    print("\nunit groups")
    for n in (5, 8, 12):
        u = multiplicative_units(n)
        print(f"  units mod {n}: {u.units}, cyclic={max(u.element_orders) == u.order}")

    print("\nisomorphism testing distinguishes equal-order groups:")
    print("  D8 vs Q8:", are_isomorphic(dihedral(8), dicyclic(2)))
    print("  C8 vs C4xC2:",
          are_isomorphic(cyclic(8), direct_product(cyclic(4), cyclic(2))))


if __name__ == "__main__":
    main()
