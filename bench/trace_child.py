"""Run one `ebrmaps` CLI command in this process with its layers traced.

Usage: python bench/trace_child.py <cli arguments...>   (PYTHONPATH=src)

Before calling ``ebrmaps.cli.main``, the public names that the calling
modules look up are rebound to wrappers.  Structural calls get a span each
(name, start, duration, parent span); hot leaf calls (the chi test with
~200k calls, the generation check, the isomorphism tests) get a call
counter and accumulated time instead, so they do not count as child spans.
A name that no longer exists is reported as absent.  Nothing inside
``src/`` changes.

The CLI's stdout is written unchanged, followed by ``MARKER`` and the trace
as one JSON object; the exit code is the CLI's.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time

import ebrmaps.census as census
import ebrmaps.cli as cli
import ebrmaps.families as families
import ebrmaps.groups as groups
import ebrmaps.maps as maps
import ebrmaps.presentations as presentations

MARKER = b"\n\x00bench-trace\x00\n"

perf_counter = time.perf_counter


class Tracer:
    """Spans and counters kept in memory until the command exits."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, duration, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, list] = {}  # name -> [calls, total seconds]
        self.quantities: dict[str, float] = {}
        self.absent: list[str] = []

    def add(self, key: str, amount: float) -> None:
        self.quantities[key] = self.quantities.get(key, 0) + amount

    def _new_span(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(rec)
        return rec

    def span(self, name: str, fn, measure=None):
        """Wrap fn in a span; ``measure(tracer, args, result)`` adds quantities."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._new_span(name)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter() - rec[1]
                self.stack.pop()
            if measure is not None:
                measure(self, args, result)
            return result

        return wrapper

    def generator_span(self, name: str, fn):
        """One span per generator: its duration is the time spent iterating."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._new_span(name)
            index = len(self.spans) - 1
            it = fn(*args, **kwargs)
            while True:
                self.stack.append(index)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec[2] += perf_counter() - t0
                    self.stack.pop()
                self.add(name + ".yielded", 1)
                yield item

        return wrapper

    def counter(self, name: str, fn):
        stat = self.counters.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[0] += 1
                stat[1] += perf_counter() - t0

        return wrapper

    def rebind(self, name: str, targets, make) -> None:
        """Replace every (owner, attribute) in targets with make(original)."""
        found = False
        for owner, attr in targets:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            setattr(owner, attr, make(original))
            found = True
        if not found:
            self.absent.append(name)

    def trace(self) -> dict:
        return {
            "spans": self.spans,
            "counters": self.counters,
            "quantities": self.quantities,
            "absent": self.absent,
        }


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the six ebrmaps modules."""

    def spans(name, targets, measure=None):
        tracer.rebind(name, targets, lambda fn: tracer.span(name, fn, measure))

    def counters(name, targets):
        tracer.rebind(name, targets, lambda fn: tracer.counter(name, fn))

    spans("cli.main", [(cli, "main")])
    spans(
        "census.classify",
        [(census, "classify")],
        lambda t, a, r: t.add("census.classify.classes", len(r)),
    )
    spans(
        "census.enumerate_maps",
        [(census, "enumerate_maps")],
        lambda t, a, r: t.add("census.enumerate_maps.kept", len(r)),
    )
    spans(
        "census.atlas",
        [(census, "atlas")],
        lambda t, a, r: t.add("census.atlas.groups", len(r)),
    )
    spans("census.catalog_json", [(census, "catalog_json")])
    for fn in ("is_orientable", "is_fully_regular", "is_self_dual"):
        spans(f"maps.{fn}", [(census, fn), (maps, fn)])
    spans(
        "presentations.coset_enumerate",
        [(presentations, "coset_enumerate"), (families, "coset_enumerate")],
        lambda t, a, r: t.add("presentations.coset_enumerate.cosets", r.num_cosets),
    )
    spans(
        "presentations.group_from_presentation",
        [(maps, "group_from_presentation"), (cli, "group_from_presentation")],
        lambda t, a, r: t.add(
            "presentations.group_from_presentation.table_entries", r.group.order**2
        ),
    )
    spans(
        "groups.semidirect",
        [(census, "semidirect"), (families, "semidirect")],
        lambda t, a, r: t.add(
            "groups.semidirect.check_ops", a[0].order ** 2 * a[1].order + a[1].order ** 2
        ),
    )
    spans(
        "groups.FiniteGroup",
        [(groups.FiniteGroup, "__post_init__")],
        lambda t, a, r: t.add("groups.FiniteGroup.elements", len(a[0].mul)),
    )
    for fn in ("dihedral_family_1", "cyclic_fitting_map", "valency_eight_map", "chi_minus_2_catalog"):
        spans(f"families.{fn}", [(families, fn)])
    tracer.rebind(
        "maps.all_map_quadruples",
        [(census, "all_map_quadruples"), (families, "all_map_quadruples")],
        lambda fn: tracer.generator_span("maps.all_map_quadruples", fn),
    )

    counters("maps.euler_characteristic_formula", [(maps, "euler_characteristic_formula")])
    counters("maps.subgroup_closure", [(maps, "subgroup_closure")])
    counters(
        "maps.equivalent_up_to_duality",
        [(census, "equivalent_up_to_duality"), (families, "equivalent_up_to_duality")],
    )
    counters("maps.is_map_isomorphic", [(maps, "is_map_isomorphic"), (families, "is_map_isomorphic")])
    counters(
        "groups.extend_generator_map",
        [(groups, "extend_generator_map"), (census, "extend_generator_map"), (families, "extend_generator_map")],
    )
    counters("groups.are_isomorphic", [(census, "are_isomorphic"), (families, "are_isomorphic")])


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        rc = cli.main(argv)
    out = sys.stdout.buffer
    out.write(captured.getvalue().encode("utf-8"))
    out.write(MARKER)
    out.write(json.dumps(tracer.trace()).encode("utf-8"))
    out.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
