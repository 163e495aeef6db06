"""The parameterized families of maps with chi = -p, p an odd prime.

Each family constructor returns a Member (a catalog label, a presentation
text and the order and type its map must have); ``build()`` makes the map
and checks it.  Five constructions cover the classification on these
surfaces:

* dh1(p): single-vertex maps of type (4(p+1), 4);
* dh2(p): two-vertex maps of type (2(p+2), 4);
* hpj(kappa, lam, j): type (4 kappa, 2 lam) maps whose largest nilpotent
  normal subgroup is cyclic, built from the cosets of a cyclic subgroup
  and certified against their relators;
* hp(m): type (8, 6m) maps of order 24m (chi = -(9m-4)), built and
  certified the same way;
* h3(): the unique fully regular member, type (4, 6).

``members(p)`` lists the members with chi = -p in catalog order.
"""

import warnings

from ebrmaps.families import cyclic_fitting_params, dh1, dh2, h3, hp, hpj, members
from ebrmaps.maps import (
    counts,
    euler_characteristic,
    is_fully_regular,
    is_orientable,
    type_of,
)


def show(label, m):
    v, e, f = counts(m)
    print(f"  {label:<18} |H|={len(m[0]):>3}  type {type_of(m)!s:<9} "
          f"V,E,F=({v},{e},{f})  chi={euler_characteristic(m):>3}  "
          f"orientable={is_orientable(m)!s:<5} fully_regular={is_fully_regular(m)}")


def main():
    print("the two dihedral families at small primes")
    for p in (3, 5, 7):
        show(f"dh1(p={p})", dh1(p).build())
        show(f"dh2(p={p})", dh2(p).build())

    print("\ncyclic-Fitting family: parameters attached to each prime")
    for p in (3, 19, 31):
        qs = cyclic_fitting_params(p)
        print(f"  p={p}: " + ", ".join(f"(kappa={k}, lam={lam}, j={j})" for k, lam, j in qs))
    print("  the roster for p=19 (each map certified against its presentation):")
    for member in members(19):
        show(member.label, member.build())

    print("\nan off-prime parameter set works too, with a warning: chi = -49 here")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        member = hpj(3, 11, 10)
    print(f"  warning: {caught[0].message}")
    show(member.label, member.build())

    print("\nvalency-eight family")
    for m_param in (1, 3, 5):
        show(f"hp(m={m_param})", hp(m_param).build())

    print("\nthe exceptional order-36 map (the only fully regular one here)")
    show("h3", h3().build())


if __name__ == "__main__":
    main()
