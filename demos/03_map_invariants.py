"""From a marked group to a map on a surface.

A map here is a group H with four marked involutions (x, y, s, t) where
x,y commute, s,t commute, and the four together generate H.  The marks
act on 2|H| flags; orbit counting recovers vertices, edges and faces, and
V - E + F identifies the carrier surface.  The flag structure is three
permutations of the flags, rho0, rho1 and rho2, as a map is four of H.
"""

from ebrmaps.maps import (
    counts,
    dual,
    euler_characteristic,
    flag_structure,
    is_fully_regular,
    is_orientable,
    is_self_dual,
    load_map,
    map_invariants,
    twin,
    type_of,
)

MAP_FILE = """\
gens x y s t
rel x^2
rel y^2
rel s^2
rel t^2
rel (x y)^2
rel (s t)^2
rel (t y)^4
rel (s x)^4
rel x y t s
mark x y s t
"""


def orbit_count(perms):
    """The number of orbits of the permutations on the flags."""
    seen, count = set(), 0
    for start in range(len(perms[0])):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            f = stack.pop()
            for perm in perms:
                if perm[f] not in seen:
                    seen.add(perm[f])
                    stack.append(perm[f])
    return count


def main():
    m = load_map(MAP_FILE)
    print("group order:", len(m[0]))
    k, l = type_of(m)
    print(f"type (k, l) = ({k}, {l}): vertex valency {k}, face length {l}")
    v, e, f = counts(m)
    print(f"V, E, F = {v}, {e}, {f}; chi = {euler_characteristic(m)}")

    print("\nflag structure")
    rho0, rho1, rho2 = flag_structure(m)
    print("  flags:", len(rho0))
    print("  vertex orbits:", orbit_count((rho1, rho2)))
    print("  edge orbits:  ", orbit_count((rho0, rho2)))
    print("  face orbits:  ", orbit_count((rho0, rho1)))
    print("  connected:    ", orbit_count((rho0, rho1, rho2)) == 1)

    print("\nsurface and symmetry")
    print("  orientable:   ", is_orientable(m))
    print("  fully regular:", is_fully_regular(m), "(isomorphic to its twin)")
    print("  self-dual:    ", is_self_dual(m), "(isomorphic to its dual)")

    print("\nthe dual swaps vertices and faces, the twin swaps edge orbits")
    print("  dual type: ", type_of(dual(m)), " counts:", counts(dual(m)))
    print("  twin type: ", type_of(twin(m)), " counts:", counts(twin(m)))
    print("  full invariant record:", map_invariants(m))


if __name__ == "__main__":
    main()
