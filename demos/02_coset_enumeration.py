"""Coset enumeration on presentations with involutory generators.

The text format has two directives: ``gens`` names the generators (each is
an involution by construction) and ``rel`` gives one relator word per line.
The enumerator completes a coset table for a subgroup given by generator
words; with the trivial subgroup it realizes the whole group concretely.
"""

from ebrmaps.groups import CapacityExceeded, are_isomorphic, dihedral, group_from_action
from ebrmaps.presentations import coset_enumerate, parse_presentation, regular_action

DIHEDRAL_20 = """\
gens a b
rel a^2
rel b^2
rel (a b)^10
"""

OCTAHEDRON = """\
gens r0 r1 r2
rel r0^2
rel r1^2
rel r2^2
rel (r0 r1)^4
rel (r1 r2)^3
rel (r0 r2)^2
"""

HYPERBOLIC = """\
gens a b c
rel a^2
rel b^2
rel c^2
rel (a b)^2
rel (b c)^3
rel (a c)^7
"""


def main():
    print("dihedral presentation, trivial subgroup = regular action")
    pres = parse_presentation(DIHEDRAL_20)
    print("  cosets:", coset_enumerate(pres).num_cosets)
    group = group_from_action(regular_action(pres), "D20")
    print("  realized group:", group.name, "order", group.order)
    print("  matches the table-built dihedral group:",
          are_isomorphic(group, dihedral(20)))

    print("\nsubgroup indexes inside the same presentation")
    print("  index of <ab> :", coset_enumerate(pres, [(0, 1)]).num_cosets)
    print("  index of <a>  :", coset_enumerate(pres, [(0,)]).num_cosets)

    print("\nthe reflection group of the octahedron")
    octa = parse_presentation(OCTAHEDRON)
    print("  order:", coset_enumerate(octa).num_cosets)
    # the rotations are generated by r0 r1 and r1 r2
    print("  rotation subgroup index:", coset_enumerate(octa, [(0, 1), (1, 2)]).num_cosets)

    print("\nhyperbolic reflection groups are infinite: capacity guard")
    try:
        coset_enumerate(parse_presentation(HYPERBOLIC), max_cosets=2000)
    except CapacityExceeded as exc:
        print("  stopped:", exc)


if __name__ == "__main__":
    main()
