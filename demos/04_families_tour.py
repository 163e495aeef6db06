"""The parameterized families of maps with chi = -p, p an odd prime.

Four constructions cover the classification on these surfaces:

* dihedral_family_1(p): single-vertex maps of type (4(p+1), 4);
* dihedral_family_2(p): two-vertex maps of type (2(p+2), 4);
* cyclic_fitting_map(params): type (4 kappa, 2 lam) maps whose
  largest nilpotent normal subgroup is cyclic, built as an explicit split
  extension and certified against their relators;
* valency_eight_map(m): type (8, 6m) maps of order 24m (chi = -(9m-4)),
  built and certified the same way;
* exceptional_order36_map(): the unique fully regular member, type (4, 6).
"""

from ebrmaps.families import (
    FamilyParams,
    cyclic_fitting_map,
    cyclic_fitting_params,
    dihedral_family_1,
    dihedral_family_2,
    exceptional_order36_map,
    valency_eight_map,
)
from ebrmaps.maps import (
    counts,
    euler_characteristic,
    is_fully_regular,
    is_orientable,
    type_of,
)


def show(label, m):
    v, e, f = counts(m)
    print(f"  {label:<18} |H|={m.order:>3}  type {type_of(m)!s:<9} "
          f"V,E,F=({v},{e},{f})  chi={euler_characteristic(m):>3}  "
          f"orientable={is_orientable(m)!s:<5} fully_regular={is_fully_regular(m)}")


def main():
    print("the two dihedral families at small primes")
    for p in (3, 5, 7):
        show(f"dh1(p={p})", dihedral_family_1(p))
        show(f"dh2(p={p})", dihedral_family_2(p))

    print("\ncyclic-Fitting family: parameters attached to each prime")
    for p in (3, 19, 31):
        qs = cyclic_fitting_params(p)
        print(f"  p={p}: " + ", ".join(f"(kappa={q.kappa}, lam={q.lam}, j={q.j})" for q in qs))
    print("  building all members for p=19 (certified against the presentation):")
    for q in cyclic_fitting_params(19):
        show(f"hpj{q.kappa, q.lam, q.j}", cyclic_fitting_map(q))

    print("\nan off-prime parameter set works too: chi = -49 here")
    q = FamilyParams(3, 11, 10)
    show(f"hpj{q.kappa, q.lam, q.j}", cyclic_fitting_map(q))

    print("\nvalency-eight family")
    for m_param in (1, 3, 5):
        show(f"hp(m={m_param})", valency_eight_map(m_param))

    print("\nthe exceptional order-36 map (the only fully regular one here)")
    show("h3", exceptional_order36_map())


if __name__ == "__main__":
    main()
