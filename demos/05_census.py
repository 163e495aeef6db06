"""Exhaustive classification of maps on the chi = -2 and chi = -3 surfaces.

The census first sieves (order, type) combinations compatible with the
target characteristic, then walks every group of every admissible order
(from a built-in atlas) and every marked quadruple in it, deduplicating up
to isomorphism, duality and twins.  For chi = -2 and chi = -3 the atlas
covers all admissible orders, so the classification is complete; the
constructive catalog is matched against it entry by entry.
"""

import json

from ebrmaps.census import (
    ATLAS_EXPECTED_COUNTS,
    admissible_types,
    atlas,
    catalog_json,
    classify,
    verify_chi_minus_1_dihedral,
)


def main():
    for p in (2, 3, 5):
        print(f"admissible (order, k, l) for chi = -{p}: {admissible_types(p)}")

    print("\natlas coverage (number of groups of each supported order):")
    print(" ", ATLAS_EXPECTED_COUNTS)
    print("  order 16 groups:", [g.name for g in atlas(16)])

    print("\nexhaustive classification at chi = -2")
    entries = classify(2, profile="exhaustive")
    for row in json.loads(catalog_json(entries)):
        flags = "".join(
            ch for ch, on in zip("OFS", (row["orientable"], row["fully_regular"], row["self_dual"])) if on
        )
        print(f"  {row['family']:<9} |H|={row['group_order']:>2} type {row['type']}"
              f"  V,E,F=({row['vertices']},{row['edges']},{row['faces']})  [{flags or '-'}]")

    print("\nexhaustive classification at chi = -3 (matched to constructors)")
    for m, member in classify(3, profile="exhaustive"):
        print(f"  {member.label:<4} on a group of order {len(m[0])}")

    print("\nby-product: chi = -1 maps exist only in dihedral groups")
    report = verify_chi_minus_1_dihedral()
    hits = [(r["group"], r["maps_found"]) for r in report["groups"] if r["maps_found"]]
    print("  passed:", report["passed"], " hits:", hits)


if __name__ == "__main__":
    main()
