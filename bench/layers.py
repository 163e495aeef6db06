"""Per-layer metrics from the traces that bench/trace_child.py writes.

A layer metric is named ``<module>.<function>.<quantity>``.  ``calls`` and
``total_s`` exist for every wrapped name; ``self_s`` is a span's duration
minus the durations of its child spans (counter-timed hot calls are not
spans, so their time stays in the caller's self time).  The other
quantities are counted by the wrappers.  Each comment says which end-to-end
metric the layer metric should move, and on which workload.
"""

from __future__ import annotations

from collections import defaultdict

PER_LAYER = (
    # chi tests in the search: wall_s and cpu_s, mostly on exclusions
    ("maps.euler_characteristic_formula.calls", "count"),
    ("maps.euler_characteristic_formula.total_s", "s"),
    # the quadruple search: exclusions and exhaustive
    ("maps.all_map_quadruples.total_s", "s"),
    ("maps.all_map_quadruples.yielded", "count"),
    ("maps.all_map_quadruples.accept_ratio", "ratio"),
    ("maps.subgroup_closure.calls", "count"),
    # dedup and matching: exhaustive (p = 2); flat on exclusions
    ("maps.equivalent_up_to_duality.calls", "count"),
    ("maps.equivalent_up_to_duality.total_s", "s"),
    ("maps.is_map_isomorphic.calls", "count"),
    ("groups.extend_generator_map.calls", "count"),
    ("census.enumerate_maps.calls", "count"),
    ("census.enumerate_maps.self_s", "s"),
    ("census.enumerate_maps.kept", "count"),
    ("census.enumerate_maps.keep_ratio", "ratio"),
    ("census.classify.self_s", "s"),
    # atlas build: exhaustive, small share of exclusions
    ("census.atlas.total_s", "s"),
    ("census.atlas.groups", "count"),
    ("groups.are_isomorphic.calls", "count"),
    ("groups.are_isomorphic.total_s", "s"),
    # catalog output and invariants of large maps: constructive
    ("census.catalog_json.total_s", "s"),
    ("maps.is_orientable.total_s", "s"),
    ("maps.is_fully_regular.total_s", "s"),
    ("maps.is_self_dual.total_s", "s"),
    # presentations and dense tables: constructive (wall_s, peak_rss_mb)
    ("presentations.coset_enumerate.calls", "count"),
    ("presentations.coset_enumerate.self_s", "s"),
    ("presentations.coset_enumerate.cosets", "count"),
    ("presentations.group_from_presentation.self_s", "s"),
    ("presentations.group_from_presentation.table_entries", "count"),
    ("groups.semidirect.calls", "count"),
    ("groups.semidirect.self_s", "s"),
    ("groups.semidirect.check_ops", "count"),
    ("groups.FiniteGroup.init_s", "s"),
    ("groups.FiniteGroup.elements", "count"),
    # family builders: constructive (chi_minus_2_catalog: exhaustive)
    ("families.dihedral_family_1.total_s", "s"),
    ("families.cyclic_fitting_map.total_s", "s"),
    ("families.valency_eight_map.total_s", "s"),
    ("families.chi_minus_2_catalog.total_s", "s"),
    # the command as a whole, after imports: all workloads
    ("cli.main.total_s", "s"),
    ("cli.stdout_bytes", "bytes"),
)

# Metrics a deterministic program must repeat exactly from run to run.
EXACT = tuple(name for name, unit in PER_LAYER if unit != "s")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def totals(traces: list[tuple[dict, int]]) -> dict[str, float]:
    """Sum over (trace, stdout byte count) pairs of every layer quantity."""
    out: dict[str, float] = defaultdict(float)
    for trace, stdout_bytes in traces:
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for _, _, duration, parent in spans:
            if parent >= 0:
                covered[parent] += duration
        for (name, _, duration, _), children in zip(spans, covered):
            out[name + ".calls"] += 1
            out[name + ".total_s"] += duration
            out[name + ".self_s"] += duration - children
        for name, (calls, seconds) in trace["counters"].items():
            out[name + ".calls"] += calls
            out[name + ".total_s"] += seconds
        for name, value in trace["quantities"].items():
            out[name] += value
        out["cli.stdout_bytes"] += stdout_bytes
    out["groups.FiniteGroup.init_s"] = out["groups.FiniteGroup.total_s"]
    out["maps.all_map_quadruples.accept_ratio"] = _ratio(
        out["maps.all_map_quadruples.yielded"], out["maps.euler_characteristic_formula.calls"]
    )
    out["census.enumerate_maps.keep_ratio"] = _ratio(
        out["census.enumerate_maps.kept"], out["maps.all_map_quadruples.yielded"]
    )
    return dict(out)


def identity_problems(workload: str, t: dict[str, float], catalog_rows: int) -> list[str]:
    """Violations of the counter identities the program's structure implies."""
    get = lambda name: t.get(name, 0.0)  # noqa: E731
    yielded = get("maps.all_map_quadruples.yielded")
    closures = get("maps.subgroup_closure.calls")
    chi_tests = get("maps.euler_characteristic_formula.calls")
    kept = get("census.enumerate_maps.kept")
    classes = get("census.classify.classes")
    out = []
    if workload == "exclusions" and not yielded <= closures <= chi_tests:
        out.append(f"not yielded {yielded} <= generation checks {closures} <= chi tests {chi_tests}")
    if kept > yielded:
        out.append(f"enumerate_maps kept {kept} > quadruples yielded {yielded}")
    if catalog_rows != classes:
        out.append(f"catalog rows {catalog_rows} != classes kept by classify {classes}")
    return out
